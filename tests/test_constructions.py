import itertools
import random
import time

import pytest

from clonekit import (
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
from clonekit import constructions
from clonekit.clones import parse_identity_system
from clonekit.search import BudgetExceededError

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
    structures = [le_plain, k3, hepp_A()]
    for _ in range(60):
        a = rng.choice(structures)
        free = rng.randint(1, 2)
        exist = rng.randint(0, 2)
        n = free + exist
        atoms = []
        for _ in range(rng.randint(0, 3)):
            name, arity = rng.choice(a.signature.rel_names)
            atoms.append((name, tuple(rng.randrange(n) for _ in range(arity))))
        eqs = []
        if rng.random() < 0.4:
            eqs.append((rng.randrange(n), rng.randrange(n)))
        phi = PPFormula(free, exist, tuple(atoms), tuple(eqs))
        assert evaluate_pp(a, phi) == naive_evaluate(a, phi)


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
    assert maps.is_retraction()


def test_constant_h2_reflects_everything_to_a_constant():
    maps = ReflectionMaps(h1=(0, 1), h2=(1, 1))
    got = reflect_operations([MIN2, MINORITY, OperationTable(2, 1, (0, 1))], maps)
    assert all(set(op.table) == {1} for op in got)
    assert not maps.is_retraction()


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


def test_bounded_search_budget_in_core_computation(monkeypatch, k3s, le_struct):
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("node limit exceeded")
    monkeypatch.setattr(constructions, "core_of", exhausted)
    res = bounded_pp_search(le_struct, k3s, PPSearchBounds(1, 0, 1))
    assert res.outcome is Outcome.BUDGET


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
