import gc
import itertools
import random
import time

import pytest

from clonekit import (
    CapacityError,
    OperationTable,
    Outcome,
    PPFormula,
    PPPowerSpec,
    PPSearchBounds,
    ReflectionMaps,
    RelStructure,
    all_polymorphisms,
    bounded_pp_search,
    check_pp_constructible,
    evaluate_pp,
    hom_equivalent,
    identity_power_spec,
    is_polymorphism,
    is_pp_definable,
    parse_pp_formula,
    pp_power,
    preserves,
    reflect_operation,
    reflect_operations,
    satisfies_system,
    verify_pp_interpretation,
)
from clonekit import SearchBudget, constructions, homs
from clonekit.clones import parse_identity_system
from clonekit.search import BudgetExceededError, Csp

from conftest import LE, MIN2, MINORITY, hepp_A, hepp_Ap, hepp_B


def naive_evaluate(a, phi):
    """Oracle: enumerate every assignment of all variables."""
    n = phi.free_vars + phi.exist_vars
    sats = set()
    for val in itertools.product(range(a.size), repeat=n):
        ok = all(tuple(val[v] for v in args) in a.tuple_set(name)
                 for name, args in phi.atoms)
        ok = ok and all(val[i] == val[j] for i, j in phi.eq_atoms)
        if ok:
            sats.add(val[:phi.free_vars])
    return tuple(sorted(sats))


def test_antisymmetry_conjunction(le_plain):
    phi = PPFormula(2, 0, (("le", (0, 1)), ("le", (1, 0))))
    assert evaluate_pp(le_plain, phi) == ((0, 0), (1, 1))


def test_exists_below(le_plain):
    phi = PPFormula(1, 1, (("le", (1, 0)),))
    assert evaluate_pp(le_plain, phi) == ((0,), (1,))


def test_hepp_projection_of_zero_sum():
    a = hepp_A()
    phi = PPFormula(1, 2, (("R00", (0, 1, 2)),))
    assert evaluate_pp(a, phi) == ((0,), (1,), (2,), (3,))


def test_equality_atoms_and_unconstrained_variables(le_plain):
    phi = PPFormula(2, 0, (), ((0, 1),))
    assert evaluate_pp(le_plain, phi) == ((0, 0), (1, 1))
    phi = PPFormula(2, 0, (("le", (0, 0)),))
    assert evaluate_pp(le_plain, phi) == tuple(
        (x, y) for x in (0, 1) for y in (0, 1))


def test_evaluate_matches_naive_enumeration_on_random_formulas(le_plain, k3):
    rng = random.Random(11)
    with_empty = RelStructure.make(3, {"e": [(0, 1), (1, 2), (2, 2)], "z": []}, {"z": 2})
    structures = [le_plain, k3, hepp_A(), with_empty]
    seen = set()
    for _ in range(300):
        a = rng.choice(structures)
        free = rng.randint(0, 2)
        exist = rng.randint(0, 3)
        n = free + exist
        if not n:
            continue
        atoms = []
        for _ in range(rng.randint(0, 3)):
            name, arity = rng.choice(a.signature.rel_names)
            atoms.append((name, tuple(rng.randrange(n) for _ in range(arity))))
        eqs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.choice((0, 0, 1, 2)))]
        phi = PPFormula(free, exist, tuple(atoms), tuple(eqs))
        assert evaluate_pp(a, phi) == naive_evaluate(a, phi), phi
        in_atoms = {v for _, args in atoms for v in args}
        in_eqs = {v for eq in eqs for v in eq}
        for v in range(free, n):
            seen.add("only in an equality" if v in in_eqs - in_atoms else
                     "nowhere" if v not in in_atoms | in_eqs else "in an atom")
        seen.add(f"{free} free")
        if any(name == "z" for name, _ in atoms):
            seen.add("empty relation")
    assert seen >= {"only in an equality", "nowhere", "in an atom", "0 free", "empty relation"}
    # zero variables, and an empty relation under an existential
    assert evaluate_pp(le_plain, PPFormula(0, 0, ())) == ((),)
    assert evaluate_pp(with_empty, PPFormula(0, 1, (("z", (0, 0)),))) == ()
    assert evaluate_pp(with_empty, PPFormula(1, 2, (), ((0, 1),))) == ((0,), (1,), (2,))


def test_formula_text_syntax(le_plain):
    phi = parse_pp_formula("pp(x1,x2) := exists y1. le(x1,y1) & y1 = x2 ;")
    assert phi.free_vars == 2 and phi.exist_vars == 1
    assert evaluate_pp(le_plain, phi) == tuple(sorted({(x, y) for x, y in LE}))
    with pytest.raises(ValueError):
        parse_pp_formula("pp(x) := le(x,zz)")
    with pytest.raises(ValueError):
        parse_pp_formula("nonsense")


def test_formula_validation(le_plain):
    with pytest.raises(ValueError):
        evaluate_pp(le_plain, PPFormula(1, 0, (("nope", (0,)),)))
    with pytest.raises(ValueError):
        evaluate_pp(le_plain, PPFormula(1, 0, (("le", (0,)),)))
    with pytest.raises(ValueError):
        PPFormula(1, 0, (("le", (0, 3)),))


def test_identity_pp_power(le_struct):
    assert pp_power(le_struct, identity_power_spec(le_struct)) == le_struct


def test_hepp_reduct_is_a_pp_power():
    a, ap = hepp_A(), hepp_Ap()
    spec = PPPowerSpec(1, (
        ("R00", 3, PPFormula(3, 0, (("R00", (0, 1, 2)),))),
        ("R10", 3, PPFormula(3, 0, (("R10", (0, 1, 2)),))),
        ("s00", 1, PPFormula(1, 0, (("s00", (0,)),))),
        ("s10", 1, PPFormula(1, 0, (("s10", (0,)),))),
    ))
    assert pp_power(a, spec) == ap


def test_componentwise_order_as_dimension_two_power(le_plain):
    spec = PPPowerSpec(2, (
        ("le", 2, PPFormula(4, 0, (("le", (0, 2)), ("le", (1, 3))))),
    ))
    p = pp_power(le_plain, spec)
    assert p.size == 4
    assert len(p.relations["le"]) == 9


def test_power_spec_validation(le_plain):
    with pytest.raises(ValueError):
        PPPowerSpec(1, (("le", 2, PPFormula(3, 0, ())),))


def test_equality_relation_always_definable(le_struct, k3):
    for a in (le_struct, k3):
        eq = [(v, v) for v in range(a.size)]
        res = is_pp_definable(a, eq, 2)
        assert res.definable and res.complete


def test_disequality_not_definable_from_pointed_order(le_struct):
    res = is_pp_definable(le_struct, [(0, 1), (1, 0)], 2)
    assert not res.definable
    assert res.violator == MIN2
    assert is_polymorphism(res.violator, le_struct)
    assert not preserves(res.violator, [(0, 1), (1, 0)])


def test_hepp_unary_subsets_have_cardinality_one_or_four():
    a = hepp_A()
    for bits in range(1, 16):
        subset = [v for v in range(4) if bits >> v & 1]
        res = is_pp_definable(a, [(v,) for v in subset], 1, max_arity=4)
        assert res.complete
        assert res.definable == (len(subset) in (1, 4))


def test_pp_definability_compiles_each_relation_pattern_once(monkeypatch, k3):
    # 56 selections over arities 1-4 each build a CSP on the same two
    # relations, the edge relation and its complement
    compiled = []
    compile_ = Csp._compile

    def counted(self, pattern, allowed):
        compiled.append((id(allowed), pattern))
        return compile_(self, pattern, allowed)

    monkeypatch.setattr(Csp, "_compile", counted)
    res = is_pp_definable(k3, k3.relations["edge"], 2)
    assert res.definable and res.arity_searched == 4
    assert len(compiled) == len(set(compiled)) == 2


def test_full_relation_is_definable(le_struct):
    res = is_pp_definable(le_struct, [(v,) for v in range(2)], 1)
    assert res.definable and res.complete


def test_identity_reflection_is_identity():
    maps = ReflectionMaps(h1=(0, 1), h2=(0, 1))
    ops = (MIN2, MINORITY)
    assert reflect_operations(ops, maps) == tuple(sorted(ops, key=OperationTable.sort_key))


def test_hepp_reflection_yields_boolean_xor():
    f = OperationTable(4, 3, tuple(x ^ y ^ z for x in range(4)
                                   for y in range(4) for z in range(4)))
    maps = ReflectionMaps(h1=(0, 2), h2=(0, 0, 1, 1))
    assert reflect_operation(f, maps) == MINORITY
    assert all(maps.h2[maps.h1[b]] == b for b in range(maps.target_size))


def test_constant_h2_reflects_everything_to_a_constant():
    maps = ReflectionMaps(h1=(0, 1), h2=(1, 1))
    got = reflect_operations([MIN2, MINORITY, OperationTable(2, 1, (0, 1))], maps)
    assert all(set(op.table) == {1} for op in got)
    assert not all(maps.h2[maps.h1[b]] == b for b in range(maps.target_size))


def test_reflection_preserves_height1_identities_randomized():
    # random algebras, random satisfied height-1 identity, random maps
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(2, 4)
        n = rng.randint(1, 3)
        f = OperationTable(d, n, tuple(rng.randrange(d) for _ in range(d**n)))
        nvars = rng.randint(1, 3)
        pattern = tuple(rng.randrange(nvars) for _ in range(n))
        # g defined so that f(x_pattern) = g(x_1..x_nvars) holds
        g_table = []
        for val in itertools.product(range(d), repeat=nvars):
            g_table.append(f.apply(*(val[p] for p in pattern)))
        g = OperationTable(d, nvars, tuple(g_table))
        system = parse_identity_system(
            "f(%s) = g(%s);" % (
                ",".join(chr(97 + p) for p in pattern),
                ",".join(chr(97 + i) for i in range(nvars))))
        assignment = {"f": f, "g": g}
        assert satisfies_system(assignment, system)
        e = rng.randint(1, 4)
        h1 = tuple(rng.randrange(d) for _ in range(e))
        h2 = tuple(rng.randrange(e) for _ in range(d))
        maps = ReflectionMaps(h1=h1, h2=h2)
        reflected = {name: reflect_operation(op, maps)
                     for name, op in assignment.items()}
        assert satisfies_system(reflected, system)


def test_reflection_along_homomorphisms_lands_in_target_polymorphisms(rxor_struct, path3, k2):
    # reflecting Pol(A') along the homomorphisms h1: B -> A', h2: A' -> B
    # must produce polymorphisms of B
    ap, b = hepp_Ap(), hepp_B()
    maps = ReflectionMaps(h1=(0, 2), h2=(0, 0, 1, 1))
    for arity in (1, 2):
        for f in all_polymorphisms(ap, arity):
            assert is_polymorphism(reflect_operation(f, maps), b)
    # arity 3 on a pair of isomorphic twins with the flip as both maps
    twin = RelStructure.make(2, {
        "rxor": [(1 ^ x, 1 ^ y, 1 ^ z) for x, y, z in rxor_struct.relations["rxor"]],
        "s0": [(1,)], "s1": [(0,)]})
    flip = ReflectionMaps(h1=(1, 0), h2=(1, 0))
    for arity in (1, 2, 3):
        for f in all_polymorphisms(twin, arity):
            assert is_polymorphism(reflect_operation(f, flip), rxor_struct)
    # and on the path/edge retraction pair at arities 1-2
    maps = ReflectionMaps(h1=(0, 1), h2=(0, 1, 0))
    for arity in (1, 2):
        for f in all_polymorphisms(path3, arity):
            assert is_polymorphism(reflect_operation(f, maps), k2)


def test_galois_soundness_definable_relations_change_nothing(le_struct):
    eq = [(v, v) for v in range(2)]
    res = is_pp_definable(le_struct, eq, 2)
    assert res.definable and res.complete
    expanded = RelStructure.make(2, {
        **{n: list(le_struct.relations[n]) for n in le_struct.relations},
        "eqrel": eq})
    for n in (1, 2, 3):
        assert [p.table for p in all_polymorphisms(le_struct, n)] == \
               [p.table for p in all_polymorphisms(expanded, n)]


def test_check_pp_constructible_identity(le_struct):
    res = check_pp_constructible(le_struct, le_struct,
                                 identity_power_spec(le_struct))
    assert res.found


def test_check_pp_constructible_hepp():
    a, b = hepp_A(), hepp_B()
    spec = PPPowerSpec(1, (
        ("R00", 3, PPFormula(3, 0, (("R00", (0, 1, 2)),))),
        ("R10", 3, PPFormula(3, 0, (("R10", (0, 1, 2)),))),
        ("s00", 1, PPFormula(1, 0, (("s00", (0,)),))),
        ("s10", 1, PPFormula(1, 0, (("s10", (0,)),))),
    ))
    res = check_pp_constructible(a, b, spec)
    assert res.found
    assert res.power is not None


def test_check_pp_constructible_refutes_bad_spec(le_struct, k3s):
    # a dimension-1 spec over the pointed order cannot produce the rigid
    # triangle's signature-compatible equivalent: an edge defined by a
    # trivially full formula still leaves no homomorphism K3s -> power
    spec = PPPowerSpec(1, (
        ("edge", 2, PPFormula(2, 0, (("le", (0, 1)),))),
        ("sing0", 1, PPFormula(1, 0, (("s0", (0,)),))),
        ("sing1", 1, PPFormula(1, 0, (("s1", (0,)),))),
        ("sing2", 1, PPFormula(1, 0, (("s1", (0,)),))),
    ))
    res = check_pp_constructible(le_struct, k3s, spec)
    assert res.outcome is Outcome.REFUTED


def test_bounded_search_finds_identity(le_struct):
    res = bounded_pp_search(le_struct, le_struct, PPSearchBounds(1, 0, 1))
    assert res.found
    assert res.spec.dimension == 1
    # any found spec self-certifies
    again = check_pp_constructible(le_struct, le_struct, res.spec)
    assert again.found


def test_bounded_search_finds_hepp_reduct():
    a, b = hepp_A(), hepp_B()
    res = bounded_pp_search(a, b, PPSearchBounds(1, 0, 1))
    assert res.found
    assert res.spec.dimension == 1
    assert check_pp_constructible(a, b, res.spec).found


def test_bounded_search_none_within_tiny_bounds(k3s, le_struct):
    res = bounded_pp_search(k3s, le_struct, PPSearchBounds(1, 0, 0))
    # whatever the outcome, a negative answer only speaks for these bounds
    assert res.outcome in (Outcome.FOUND, Outcome.REFUTED)
    if res.found:
        assert check_pp_constructible(k3s, le_struct, res.spec).found


def test_bounded_search_skips_dimensions_below_the_core_size():
    # every power of dimension 1 of the two-element hepp_B is smaller than
    # the four-element core hepp_A, so no pick needs a search
    start = time.perf_counter()
    res = bounded_pp_search(hepp_B(), hepp_A(), PPSearchBounds(1, 0, 1))
    assert time.perf_counter() - start < 1.0
    assert res.outcome is Outcome.REFUTED


def test_bounded_search_builds_one_candidate_list_per_arity(monkeypatch, le_struct):
    # s0 and s1 are both unary, so they share one list of one-variable formulas
    calls = []
    build = constructions._candidate_formulas

    def counted(a, free, bounds):
        calls.append(free)
        return build(a, free, bounds)

    monkeypatch.setattr(constructions, "_candidate_formulas", counted)
    res = bounded_pp_search(le_struct, le_struct, PPSearchBounds(1, 0, 1))
    assert res.found
    assert calls == [2, 1]


def test_bounded_search_over_the_power_cap_is_not_a_refutation():
    # no one-dimensional power maps to b; the 1001**2 elements of the
    # two-dimensional ones exceed the power cap, so nothing is refuted
    a = RelStructure.make(1001, {"u": [(0,)]})
    b = RelStructure.make(1, {"u": []}, arities={"u": 1})
    with pytest.raises(CapacityError):
        bounded_pp_search(a, b, PPSearchBounds(2, 0, 1))


def test_bounded_search_budget_in_core_computation(monkeypatch, k3s, le_struct):
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("node limit exceeded")
    monkeypatch.setattr(constructions, "core_of", exhausted)
    res = bounded_pp_search(le_struct, k3s, PPSearchBounds(1, 0, 1))
    assert res.outcome is Outcome.BUDGET


def test_bounded_search_time_limit_covers_the_whole_search():
    # each search alone, and each candidate list, is far shorter than 50 ms,
    # but the whole search is not: the deadline must stop the pick searches
    start = time.perf_counter()
    res = bounded_pp_search(hepp_A(), hepp_B(), PPSearchBounds(1, 0, 2),
                            SearchBudget(time_limit_ms=50))
    assert res.outcome is Outcome.BUDGET
    assert time.perf_counter() - start < 3.0


def test_bounded_search_checks_the_time_limit_before_each_candidate_list(
        monkeypatch, le_struct):
    # the first list outlasts the limit, so the second is never built
    calls = []
    build = constructions._candidate_formulas

    def slow(a, free, bounds):
        calls.append(free)
        time.sleep(0.06)
        return build(a, free, bounds)

    monkeypatch.setattr(constructions, "_candidate_formulas", slow)
    res = bounded_pp_search(le_struct, le_struct, PPSearchBounds(1, 0, 1),
                            SearchBudget(time_limit_ms=50))
    assert res.outcome is Outcome.BUDGET
    assert calls == [2]


def test_bounded_search_node_limit_in_a_prefix_check_is_not_a_refutation():
    # K4 has no 3-coloring, so no power of K4 (with its point) maps to K3
    # (with its point); refuting K4 -> K3 takes two nodes, so under a
    # one-node limit the prefix check of the edge relation runs out of
    # budget, which must not prune it into a refutation
    k4 = RelStructure.make(4, {"edge": [(x, y) for x in range(4) for y in range(4) if x != y],
                               "pt": [(0,)]})
    k3 = RelStructure.make(3, {"edge": [(x, y) for x in range(3) for y in range(3) if x != y],
                               "pt": [(0,)]})
    bounds = PPSearchBounds(1, 0, 1)
    assert bounded_pp_search(k4, k3, bounds).outcome is Outcome.REFUTED
    res = bounded_pp_search(k4, k3, bounds, SearchBudget(node_limit=1))
    assert res.outcome is Outcome.BUDGET


def naive_candidates(a, free, bounds):
    """Oracle: evaluate every combination of pool atoms on its own, in order
    of (atom count, existential count, combination), and keep the first
    formula of each satisfaction set."""
    seen = set()
    ordered = []
    for natoms in range(bounds.max_atoms + 1):
        for e in range(bounds.max_existentials + 1):
            nv = free + e
            pool = [((name, args), None) for name, k in a.signature.rel_names
                    for args in itertools.product(range(nv), repeat=k)]
            pool += [(None, eq) for eq in itertools.combinations(range(nv), 2)]
            for combo in itertools.combinations(pool, natoms):
                used = {v for atom, eq in combo for v in (atom[1] if atom else eq)}
                # the innermost existential must be mentioned
                if e > 0 and nv - 1 not in used:
                    continue
                phi = PPFormula(free, e, tuple(atom for atom, _ in combo if atom),
                                tuple(eq for _, eq in combo if eq))
                sat = evaluate_pp(a, phi)
                if sat not in seen:
                    seen.add(sat)
                    ordered.append((natoms, phi, sat))
    return ordered


def test_candidate_formulas_match_per_combination_evaluation():
    rng = random.Random(31)
    for free, e, natoms in itertools.product((1, 2, 3), (0, 1, 2), (1, 2)):
        bounds = PPSearchBounds(1, e, natoms)
        for _ in range(3):
            a = random_structure(rng, rng.choice((2, 3)), rng.choice((1, 2)), (1, 2, 3))
            assert constructions._candidate_formulas(a, free, bounds) == \
                naive_candidates(a, free, bounds)


def test_candidate_formulas_evaluate_each_atom_once(monkeypatch):
    # one mask per pool atom: 4 ternary relations x 27 argument tuples,
    # 4 unary x 3, and 3 equalities, not one per each of 7,627 combinations
    calls = []
    atom_mask = constructions._atom_mask

    def counted(d, nv, args, tuples):
        calls.append(args)
        return atom_mask(d, nv, args, tuples)

    monkeypatch.setattr(constructions, "_atom_mask", counted)
    candidates = constructions._candidate_formulas(hepp_A(), 3, PPSearchBounds(1, 0, 2))
    assert len(calls) == 4 * 27 + 4 * 3 + 3
    assert len(candidates) == 118


def unpruned_pp_search(a, b, bounds):
    """Oracle: every pick of every dimension in order of its total atom
    count, each power built by pp_power and run through hom_equivalent."""
    names = b.signature.rel_names
    for dim in range(1, bounds.max_dimension + 1):
        lists = [[(natoms, phi) for natoms, phi, _ in naive_candidates(a, k * dim, bounds)]
                 for _, k in names]
        for total in range(bounds.max_atoms * len(names) + 1):
            for picks in itertools.product(*lists):
                if sum(natoms for natoms, _ in picks) != total:
                    continue
                spec = PPPowerSpec(dim, tuple(
                    (name, k, phi) for (name, k), (_, phi) in zip(names, picks)))
                power = pp_power(a, spec)
                eq = hom_equivalent(power, b)
                if eq.found:
                    return Outcome.FOUND, spec, power, eq.forward, eq.backward
    return Outcome.REFUTED, None, None, None, None


def random_structure(rng, size, nrels, arities):
    rels = {}
    for j in range(nrels):
        k = rng.choice(arities)
        cube = list(itertools.product(range(size), repeat=k))
        rels[f"r{j}"] = rng.sample(cube, rng.randint(1, len(cube)))
    return RelStructure.make(size, rels)


def has_constant_endomorphism(b):
    return any(all((v,) * k in b.tuple_set(name) for name, k in b.signature.rel_names)
               for v in range(b.size))


def random_pairs(bounds):
    """Seeded source and target pairs for the bounded search; b has two
    relations, so every pick has a prefix to check, and no constant
    endomorphism, which any nonempty power would map onto."""
    rng = random.Random(20 + bounds.max_dimension)
    while True:
        a = random_structure(rng, rng.choice((2, 3)), rng.choice((1, 2)), (1, 2, 3))
        b = random_structure(rng, 2, 2, (1, 2))
        if not has_constant_endomorphism(b):
            yield a, b


def logged_prefix_search(monkeypatch, search):
    """Route every prefix check through ``search`` and return the list that
    collects each check's (prefix length, outcome, nodes)."""
    log = []

    def logged(csp, b, picks, budget):
        res = search(csp, b, picks, budget)
        log.append((len(picks), res.outcome, res.nodes))
        return res

    monkeypatch.setattr(constructions, "_prefix_search", logged)
    return log


def rebuilt_prefix_search(csp, b, picks, budget):
    """Oracle for a prefix check: ignore the extended CSP and search the
    hom_csp of the partial power, built from scratch."""
    return homs.find_homomorphism(constructions._pick_power(csp.nvars, b, picks), b, budget)


@pytest.mark.parametrize("bounds", [PPSearchBounds(1, 0, 1), PPSearchBounds(2, 0, 1)])
def test_bounded_search_matches_unpruned_enumeration(monkeypatch, bounds):
    log = logged_prefix_search(monkeypatch, constructions._prefix_search)
    outcomes = []
    for a, b in itertools.islice(random_pairs(bounds), 25):
        res = bounded_pp_search(a, b, bounds)
        want = unpruned_pp_search(a, b, bounds)
        assert (res.outcome, res.spec, res.power, res.forward, res.backward) == want
        outcomes.append(res.outcome)
    assert set(outcomes) == {Outcome.FOUND, Outcome.REFUTED}
    assert sum(outcome is Outcome.REFUTED for _, outcome, _ in log) > 0


@pytest.mark.parametrize("bounds", [PPSearchBounds(1, 0, 1), PPSearchBounds(2, 0, 1)])
def test_extended_prefix_csps_match_rebuilt_ones(monkeypatch, bounds):
    # same result, same prefix verdicts in the same order, same nodes each
    extend = constructions._prefix_search
    checks = 0
    for a, b in itertools.islice(random_pairs(bounds), 25):
        runs = []
        for search in (extend, rebuilt_prefix_search):
            log = logged_prefix_search(monkeypatch, search)
            res = bounded_pp_search(a, b, bounds)
            runs.append(((res.outcome, res.spec, res.power, res.forward, res.backward), log))
        assert runs[0] == runs[1]
        checks += len(runs[0][1])
    assert checks > 0


def test_bounded_search_hepp_result_pinned_with_few_hom_searches(monkeypatch):
    searches = []
    search = homs.find_homomorphism

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(homs, "find_homomorphism", counted)
    log = logged_prefix_search(monkeypatch, constructions._prefix_search)
    picks = []
    equivalent = constructions.hom_equivalent

    def tried(power, b, budget):
        res = equivalent(power, b, budget)
        picks.append(res.nodes)
        return res

    monkeypatch.setattr(constructions, "hom_equivalent", tried)
    res = bounded_pp_search(hepp_A(), hepp_B(), PPSearchBounds(1, 0, 1))
    assert res.found
    assert res.spec == PPPowerSpec(1, (
        ("R00", 3, PPFormula(3, 0, (("R00", (0, 1, 2)),))),
        ("R10", 3, PPFormula(3, 0, (("R01", (0, 1, 2)),))),
        ("s00", 1, PPFormula(1, 0, (("R00", (0, 0, 0)),))),
        ("s10", 1, PPFormula(1, 0, (("R01", (0, 0, 0)),))),
    ))
    assert res.forward.map == (0, 1, 0, 1)
    assert res.backward.map == (0, 1)
    # every pick tried without pruning took 5,251 searches; now the
    # prefixes are checked on CSPs of their own, and of the 38 picks tried
    # only the last passes the first search of hom_equivalent to reach its
    # second
    assert (len(log), len(picks)) == (480, 38)
    assert sum(nodes for _, _, nodes in log) + sum(picks) == 33
    assert len(searches) == 38 + 1


def test_bounded_search_leaves_no_csp_in_a_reference_cycle():
    # with the collector off, a CSP kept alive by a cycle outlives the
    # search; every CSP the search builds must be freed when it returns
    def csps():
        return sum(isinstance(obj, Csp) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = csps()
        res = bounded_pp_search(hepp_A(), hepp_B(), PPSearchBounds(1, 0, 2))
        after = csps()
    finally:
        gc.enable()
    assert res.found
    assert after == before


def test_verify_pp_interpretation_accepts_hepp_quotient():
    # interpret the two-element structure in the four-element one through
    # the high-bit quotient x -> x >> 1, with "low" = {0, 1} as a helper
    # relation so the preimages are pp-expressible
    a = hepp_A()
    b = hepp_B()
    a_low = RelStructure.make(4, {**{n: list(a.relations[n]) for n in a.relations},
                                  "low": [(0,), (1,)]})
    mapping = {(v,): v >> 1 for v in range(4)}
    dom = PPFormula(1, 0, ())
    # x ~ y iff x + y lands in {0, 1}: exists u. x+y+u = 0 and low(u)
    eq = PPFormula(2, 1, (("R00", (0, 1, 2)), ("low", (2,))))
    rels = {
        # x+y+z has high bit c iff exists v = x+y and u = v+z+(c,0) with low(u)
        "R00": PPFormula(3, 2, (("R00", (0, 1, 3)), ("R00", (3, 2, 4)),
                                ("low", (4,)))),
        "R10": PPFormula(3, 2, (("R00", (0, 1, 3)), ("R10", (3, 2, 4)),
                                ("low", (4,)))),
        "s00": PPFormula(1, 0, (("low", (0,)),)),
        # x in {2, 3} iff exists w = 0 and u with x+w+u = (1,0) and low(u)
        "s10": PPFormula(1, 2, (("R10", (0, 1, 2)), ("s00", (1,)),
                                ("low", (2,)))),
    }
    problems = verify_pp_interpretation(a_low, b, 1, mapping, dom, eq, rels)
    assert problems == []


def test_verify_pp_interpretation_rejects_wrong_kernel():
    a, b = hepp_A(), hepp_B()
    mapping = {(v,): v >> 1 for v in range(4)}
    dom = PPFormula(1, 0, ())
    bad_eq = PPFormula(2, 0, ((("R00", (0, 1, 1))),))
    rels = {name: PPFormula(3, 0, ((name, (0, 1, 2)),))
            for name in ("R00", "R10")}
    rels["s00"] = PPFormula(1, 0, (("s00", (0,)),))
    rels["s10"] = PPFormula(1, 0, (("s10", (0,)),))
    problems = verify_pp_interpretation(a, b, 1, mapping, dom, bad_eq, rels)
    assert problems
