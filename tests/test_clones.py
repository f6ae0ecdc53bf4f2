import itertools
import random

import pytest

from clonekit import (
    CloneGenSet,
    OperationTable,
    Outcome,
    RelStructure,
    SearchBudget,
    add_singletons,
    all_polymorphisms,
    compose,
    find_operation_satisfying,
    generate_to_arity,
    has_cyclic,
    has_siggers,
    is_polymorphism,
    parse_identity_system,
    preserves,
    projection,
    satisfies_system,
)
import clonekit.clones
from clonekit.clones import (
    SIGGERS_SYSTEM,
    _reflect,
    H1IdentitySystem,
    FlatTerm,
    cyclic_system,
    minor_cells,
    operation_from_dict,
    operation_to_dict,
    preservation_scopes,
    seminaive_pools,
)
from clonekit.constructions import PPFormula, evaluate_pp
from clonekit.homs import all_homomorphisms, hom_csp
from clonekit.search import BudgetExceededError, Csp
from clonekit.structures import column_cells, power_structure, selection_columns

from conftest import DISEQ, LE, MINORITY, MIN2, MAX2


def brute_polymorphisms(a, n):
    out = []
    for tab in itertools.product(range(a.size), repeat=a.size**n):
        f = OperationTable(a.size, n, tab)
        if is_polymorphism(f, a):
            out.append(f)
    return out


def test_projection_tables():
    assert projection(2, 1, 1).table == (0, 1)
    assert projection(2, 2, 2).table == (0, 1, 0, 1)
    assert projection(2, 2, 1).table == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        projection(2, 2, 3)


def test_projection_law_under_composition():
    for f in (MIN2, MAX2):
        g = OperationTable(2, 2, (1, 0, 0, 1))
        assert compose(projection(2, 2, 1), [f, g]) == f
        assert compose(projection(2, 2, 2), [f, g]) == g


def test_compose_identity_and_minority_collapse():
    p1, p2 = projection(2, 2, 1), projection(2, 2, 2)
    assert compose(MIN2, [p1, p2]) == MIN2
    # minority(x, y, y) = x
    assert compose(MINORITY, [p1, p2, p2]) == p1


def test_compose_pointwise_example():
    h = compose(MIN2, [MAX2, MIN2])
    assert h.apply(0, 1) == 0


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose(MIN2, [MIN2])
    with pytest.raises(ValueError):
        compose(MIN2, [MIN2, projection(2, 3, 1)])


def test_preserves_examples(le_struct):
    for n in (1, 2):
        for i in range(1, n + 1):
            assert preserves(projection(2, n, i), LE)
    assert preserves(MIN2, LE)
    assert not preserves(MIN2, DISEQ)


def test_operation_table_rejects_entries_out_of_range():
    for table in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            OperationTable(2, 1, table)


def random_rows(rng, d, k):
    """One to four k-tuples over {0..d-1}, one-row relations included."""
    return sorted({tuple(rng.randrange(d) for _ in range(k)) for _ in range(rng.randint(1, 4))})


def test_selection_columns_match_column_cells_per_selection():
    # the bulk primitive and the scopes built on it give, in order, the
    # cells of every selection in itertools.product order
    import random
    rng = random.Random(41)
    shapes = set()
    for _ in range(300):
        d, k, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 4)
        rows = random_rows(rng, d, k)
        expected = [column_cells(d, sel, k) for sel in itertools.product(rows, repeat=n)]
        blocks = list(selection_columns(d, rows, k, n))
        assert len(blocks) == (len(rows) if n else 1)
        assert [t for block in blocks for t in zip(*block)] == expected
        a = RelStructure.make(d, {"r": rows}, {"r": k})
        assert list(preservation_scopes(a, "r", n)) == expected
        shapes.add((d, k, n, len(rows) == 1))
    assert {(d, k, n) for d, k, n, _ in shapes} == set(itertools.product(
        range(1, 5), range(1, 4), range(5)))
    assert {one for *_, one in shapes} == {True, False}


def pointwise_preserves(f, rows):
    """Oracle: apply f to the columns of every selection of rows."""
    member = set(rows)
    return all(tuple(f.apply(*(t[j] for t in sel)) for j in range(len(rows[0]))) in member
               for sel in itertools.product(rows, repeat=f.arity))


def test_preserves_matches_pointwise_application():
    # tables are projections, constants or random, so both answers occur
    import random
    rng = random.Random(43)
    answers = set()
    for _ in range(400):
        d, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        rows = random_rows(rng, d, k)
        kind = rng.choice(("projection", "constant", "random"))
        if kind == "projection" and n:
            f = projection(d, n, rng.randint(1, n))
        elif kind == "constant":
            f = OperationTable(d, n, (rng.randrange(d),) * d**n)
        else:
            f = OperationTable(d, n, tuple(rng.randrange(d) for _ in range(d**n)))
        got = preserves(f, rows)
        assert got == pointwise_preserves(f, rows), (f, rows)
        answers.add(got)
    assert answers == {True, False}


class _RandomMap(dict):
    """A random map of N-vectors to {0..size-1}, drawn on first lookup."""

    def __init__(self, rng, size):
        self.rng, self.size = rng, size

    def __missing__(self, vector):
        value = self[vector] = self.rng.randrange(self.size)
        return value


def test_reflection_kernel_matches_pointwise_application():
    # an oracle apart from the kernel: each reflected cell is h2 of the
    # N-vector that OperationTable.apply gives coordinate by coordinate, for
    # h1 of N = 1 and for the projections of B (N = d**|B|), at all of B^n
    # and at a random list of columns, from whole and restricted tables
    rng = random.Random(2207)
    for _ in range(80):
        d, n, nb = rng.randint(2, 4), rng.randint(0, 3), rng.randint(1, 3)
        f = OperationTable(d, n, tuple(rng.randrange(d) for _ in range(d**n)))
        h2 = _RandomMap(rng, nb)
        every = list(itertools.product(range(nb), repeat=n))
        some = [rng.choice(every) for _ in range(rng.randint(1, 4))]
        for h1 in ([(rng.randrange(d),) for _ in range(nb)],
                   [minor_cells(d, (b,), nb) for b in range(nb)]):
            for columns in (None, some):
                expected = tuple(h2[tuple(f.apply(*(h1[b][p] for b in col))
                                          for p in range(len(h1[0])))]
                                 for col in (every if columns is None else columns))
                whole = lambda cells: [f.table]
                restricted = lambda cells: [tuple(f.table[c] for c in cells)]
                got = list(_reflect(d, h1, h2, [(n, whole), (n, restricted)],
                                    columns=columns))
                assert got == [expected, expected], (d, n, h1, columns)


def cycle(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return RelStructure.make(n, {"edge": edges + [(b, a) for a, b in edges]})


def old_siggers_scopes(a):
    """Per relation, the scope keys of the Siggers CSP as a comprehension
    over itertools.product and column_cells builds them, one per selection."""
    n = 4
    cells = a.size**n
    uf = clonekit.clones._UnionFind(cells)
    (lhs, rhs), = SIGGERS_SYSTEM.equations
    m = max(lhs.var_count(), rhs.var_count())
    for x, y in zip(minor_cells(a.size, lhs.args, m), minor_cells(a.size, rhs.args, m)):
        uf.union(x, y)
    roots = sorted({uf.find(x) for x in range(cells)})
    var_of_root = {r: i for i, r in enumerate(roots)}
    cell_var = [var_of_root[uf.find(x)] for x in range(cells)]
    return [list({tuple(cell_var[c] for c in column_cells(a.size, sel, k)): None
                  for sel in itertools.product(a.relations[name], repeat=n)})
             for name, k in a.signature.rel_names]


def test_siggers_csp_scopes_keep_their_order(monkeypatch):
    # the scope order numbers nothing, but it is the order add_constraint
    # compiles and propagates in, so node counts depend on it
    import random
    rng = random.Random(47)
    k4 = RelStructure.make(4, {"edge": [(x, y) for x in range(4) for y in range(4) if x != y]})
    boolean = [RelStructure.make(2, {f"r{i}": random_rows(rng, 2, rng.randint(1, 3))
                                     for i in range(rng.randint(1, 3))})
               for _ in range(6)]
    add = Csp.add_constraint
    calls = []

    def recorded(self, scopes, allowed, compiled=None):
        calls.append(list(scopes))
        return add(self, calls[-1], allowed, compiled)

    monkeypatch.setattr(Csp, "add_constraint", recorded)
    for a in [cycle(5), cycle(7), add_singletons(k4)] + boolean:
        calls.clear()
        has_siggers(a)
        assert calls == old_siggers_scopes(a)


def test_preservation_scopes_hold_one_block_at_a_time():
    # 14**4 selections of the 7-cycle's edges: one block of columns takes
    # about 0.5 MiB at its peak, all blocks at once about 2.8 MiB
    import tracemalloc

    c7 = cycle(7)
    tracemalloc.start()
    try:
        count = sum(1 for _ in preservation_scopes(c7, "edge", 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 14**4
    assert peak < 2**20


def test_siggers_search_drops_its_scopes_once_compiled():
    # the 7-cycle's Siggers search peaks at about 5.1 MiB under
    # tracemalloc; keeping the dict of its 14**4 scopes through the search
    # takes it to about 6.4
    import tracemalloc

    c7 = cycle(7)
    tracemalloc.start()
    try:
        res = has_siggers(c7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome is Outcome.REFUTED
    assert peak < 5.8 * 2**20


def test_siggers_search_holds_one_relations_scopes_at_a_time():
    # a second copy of the 7-cycle's edge relation adds about 0.2 MiB to
    # the Siggers search's peak, and about 3 MiB when the scopes of both
    # copies are built before the first is compiled
    import tracemalloc

    edges = cycle(7).relations["edge"]
    peaks = []
    for rels in ({"edge": edges}, {"edge": edges, "copy": edges}):
        tracemalloc.start()
        try:
            res = has_siggers(RelStructure.make(7, rels))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.outcome is Outcome.REFUTED
    assert peaks[1] - peaks[0] < 2**20


def test_unary_polymorphisms_of_pointed_order(le_struct):
    assert [p.table for p in all_polymorphisms(le_struct, 1)] == [(0, 1)]


def test_binary_polymorphisms_of_pointed_order(le_struct):
    got = [p.table for p in all_polymorphisms(le_struct, 2)]
    assert got == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]


def test_triangle_unary_polymorphisms_are_automorphisms(k3):
    got = all_polymorphisms(k3, 1)
    assert len(got) == 6
    assert all(len(set(p.table)) == 3 for p in got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polymorphism_stream_matches_brute_force(le_struct, k3, rxor_struct, n):
    for a in (le_struct, k3, rxor_struct):
        if a.size ** (a.size**n) > 10**6:
            continue
        got = all_polymorphisms(a, n)
        want = brute_polymorphisms(a, n)
        assert [p.table for p in got] == [p.table for p in want]


def test_stream_is_lexicographic(le_struct):
    tables = [p.table for p in all_polymorphisms(le_struct, 2)]
    assert tables == sorted(tables)


def test_polymorphisms_closed_under_projection_composition(le_struct):
    polys = {p.table for p in all_polymorphisms(le_struct, 2)}
    p1, p2 = projection(2, 2, 1), projection(2, 2, 2)
    for t in list(polys):
        f = OperationTable(2, 2, t)
        assert compose(f, [p1, p2]).table in polys
        assert compose(f, [p2, p1]).table in polys


def test_identity_dsl_parsing():
    sys = parse_identity_system("t(a,r,e,a) = t(r,a,r,e);")
    assert sys.symbols == (("t", 4),)
    (lhs, rhs), = sys.equations
    assert lhs.args == (0, 1, 2, 0)
    assert rhs.args == (1, 0, 1, 2)

    sys = parse_identity_system("p(x,y,y) = x; q(x,x,y) = p(x,y,y);")
    assert dict(sys.symbols) == {"p": 3, "q": 3}
    assert len(sys.equations) == 2

    sys = parse_identity_system('f("u1","u2") = f("u2","u1");')
    assert sys.symbols == (("f", 2),)


def test_identity_dsl_errors():
    with pytest.raises(ValueError):
        parse_identity_system("t(x,y)")
    with pytest.raises(ValueError):
        parse_identity_system("t(xy) = t(x);")  # multi-letter unquoted
    with pytest.raises(ValueError):
        parse_identity_system("t(x,y) = t(x,y,y);")  # two arities


def test_system_validation():
    with pytest.raises(ValueError):
        H1IdentitySystem((("t", 2),), ((FlatTerm("u", (0, 1)), FlatTerm(None, (0,))),))
    with pytest.raises(ValueError):
        H1IdentitySystem((("t", 2),), ((FlatTerm("t", (0,)), FlatTerm(None, (0,))),))


def test_commutative_operation_on_pointed_order(le_struct):
    res = find_operation_satisfying(le_struct, parse_identity_system("t(x,y) = t(y,x);"))
    assert res.found
    t = res.assignment["t"]
    assert satisfies_system({"t": t}, parse_identity_system("t(x,y) = t(y,x);"))
    assert is_polymorphism(t, le_struct)


def test_siggers_refuted_on_rigid_triangle(k3s):
    assert has_siggers(k3s).outcome is Outcome.REFUTED


def test_search_invariants_on_seven_cycle():
    # node count and table count of the undirected 7-cycle, a core with no
    # Siggers operation; any change to propagation strength or to the
    # variable or value order moves them
    edges = [(i, (i + 1) % 7) for i in range(7)]
    c7 = RelStructure.make(7, {"edge": edges + [(b, a) for a, b in edges]})
    res = has_siggers(c7)
    assert res.outcome is Outcome.REFUTED and res.nodes == 77
    assert len(all_polymorphisms(c7, 3)) == 42


def test_maltsev_on_affine_structure(rxor_struct):
    res = find_operation_satisfying(
        rxor_struct, parse_identity_system("p(x,y,y) = x; p(x,x,y) = y;"))
    assert res.found
    assert res.assignment["p"] == MINORITY


def test_siggers_found_on_one_element():
    one = RelStructure.make(1, {"u": [(0,)]})
    assert has_siggers(one).found


def test_siggers_found_on_pointed_order(le_struct):
    res = has_siggers(le_struct)
    assert res.found
    assert is_polymorphism(res.assignment["t"], le_struct)


def test_cyclic_on_pointed_order(le_struct):
    res = has_cyclic(le_struct, 2)
    assert res.found
    assert res.assignment["t"] == MIN2


def test_cyclic_refuted_on_rigid_triangle(k3s):
    assert has_cyclic(k3s, 2).outcome is Outcome.REFUTED
    assert has_cyclic(k3s, 3).outcome is Outcome.REFUTED


def test_cyclic_minority_on_affine(rxor_struct):
    res = has_cyclic(rxor_struct, 3)
    assert res.found
    assert res.assignment["t"] == MINORITY


def test_cyclic_arity_validation(rxor_struct):
    with pytest.raises(ValueError):
        has_cyclic(rxor_struct, 1)


def test_identity_search_respects_budget(k3s):
    res = find_operation_satisfying(k3s, cyclic_system(2),
                                    SearchBudget(node_limit=1))
    # propagation may settle it without nodes; both answers are sound here
    assert res.outcome in (Outcome.REFUTED, Outcome.BUDGET)


def test_found_witnesses_reverify(le_struct, rxor_struct):
    for a, text in [(le_struct, "t(x,y) = t(y,x);"),
                    (rxor_struct, "p(x,y,y) = x; p(x,x,y) = y;")]:
        system = parse_identity_system(text)
        res = find_operation_satisfying(a, system)
        assert res.found
        assert satisfies_system(res.assignment, system)
        for op in res.assignment.values():
            assert is_polymorphism(op, a)


def test_generate_projections_only():
    gen = CloneGenSet.of(2, [])
    for k in (1, 2, 3):
        got = generate_to_arity(gen, k)
        assert sorted(g.table for g in got) == sorted(
            projection(2, k, i + 1).table for i in range(k))


def test_generate_minority_binary_collapses():
    gen = CloneGenSet.of(2, [MINORITY])
    got = generate_to_arity(gen, 2)
    assert [g.table for g in got] == [(0, 0, 1, 1), (0, 1, 0, 1)]


def test_generate_lattice_binary():
    gen = CloneGenSet.of(2, [MIN2, MAX2])
    got = generate_to_arity(gen, 2)
    assert [g.table for g in got] == [(0, 0, 0, 1), (0, 0, 1, 1),
                                      (0, 1, 0, 1), (0, 1, 1, 1)]


def test_generate_with_constant_generator():
    zero = OperationTable(2, 0, (0,))
    gen = CloneGenSet.of(2, [zero])
    got = generate_to_arity(gen, 2)
    assert (0, 0, 0, 0) in {g.table for g in got}


def test_seminaive_pools_cover_each_frontier_combination(monkeypatch):
    # a round must reach every combination that holds a frontier member: once
    # each for a generator in general, and each unordered pair at least once,
    # with no more than the triangle's block slack over once, for a
    # commutative binary one; rounds of 256 pairs or more take blocks here
    import random
    from collections import Counter
    monkeypatch.setattr(clonekit.clones, "_BLOCK", 256)
    rng = random.Random(14)
    kinds, widths = set(), set()
    for _ in range(150):
        d, n = rng.choice((2, 3)), rng.randint(1, 3)
        table = [rng.randrange(d) for _ in range(d**n)]
        if rng.random() < 0.5:  # symmetric in all arguments
            cells = {args: i for i, args in enumerate(itertools.product(range(d), repeat=n))}
            table = [table[cells[tuple(sorted(args))]] for args in cells]
        g = OperationTable(d, n, tuple(table))
        # binary rounds wide enough for blocks of several members
        old = [("old", i) for i in range(rng.randint(0, 40 // n))]
        frontier = [("new", i) for i in range(rng.randint(1, 120 // n**2))]
        every = frontier + old
        counts = Counter(combo for pools in seminaive_pools(g, old, frontier, every)
                         for combo in itertools.product(*pools))
        commutative = n == 2 and all(table[x * d + y] == table[y * d + x]
                                     for x in range(d) for y in range(d))
        kinds.add((d, n, commutative))
        wanted = {c for c in itertools.product(every, repeat=n)
                  if any(t[0] == "new" for t in c)}
        if not commutative:
            assert counts == Counter(wanted), (g, len(old), len(frontier))
            continue
        assert {frozenset(c) for c in counts} == {frozenset(c) for c in wanted}
        m, f = len(old), len(frontier)
        width = -(-f // clonekit.clones._TRIANGLE) if f * (f + m) >= 256 else f
        assert sum(counts.values()) <= f * (f + 1) // 2 + f * m + f * (width - 1) // 2
        widths.add(width)
    assert {(d, n) for d, n, _ in kinds} == {(d, n) for d in (2, 3) for n in (1, 2, 3)}
    assert max(widths) > 1
    assert {(d, True) for d in (2, 3)} <= {(d, c) for d, n, c in kinds if n == 2}


def test_operation_serialization_roundtrip():
    assert operation_from_dict(operation_to_dict(MINORITY)) == MINORITY


def test_minor_cells_match_pointwise_application():
    # cell c of f(x_sigma[0], ..., x_sigma[n-1]) as an m-ary table is f
    # applied to the valuation with code c, first variable most significant
    import random
    rng = random.Random(17)
    shapes = set()
    for _ in range(400):
        d, n, m = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        if n and not m:
            continue
        sigma = tuple(rng.randrange(m) for _ in range(n))
        f = OperationTable(d, n, tuple(rng.randrange(d) for _ in range(d**n)))
        cells = minor_cells(d, sigma, m)
        assert [f.table[c] for c in cells] == \
            [f.apply(*(x[s] for s in sigma)) for x in itertools.product(range(d), repeat=m)]
        shapes.add((len(set(sigma)) < n, len(set(sigma)) < m))
    # repeated variables and unused ones, each with and without the other
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def pointwise_satisfies(assignment, system):
    """Oracle: evaluate both sides of every equation at every valuation."""
    d = None
    for name, arity in system.symbols:
        op = assignment[name]
        if op.arity != arity or op.domain_size != (d or op.domain_size):
            return False
        d = op.domain_size
    d = d or 1

    def evaluate(side, val):
        if side.symbol is None:
            return val[side.args[0]]
        idx = 0
        for v in side.args:
            idx = idx * d + val[v]
        return assignment[side.symbol].table[idx]

    for lhs, rhs in system.equations:
        nvars = max(lhs.var_count(), rhs.var_count())
        for val in itertools.product(range(d), repeat=nvars):
            if evaluate(lhs, val) != evaluate(rhs, val):
                return False
    return True


def test_satisfies_system_matches_pointwise_evaluation():
    # random systems over symbols of arity 0..3, with bare-variable sides;
    # tables are projections, constants or random, so both answers occur
    import random
    rng = random.Random(23)
    answers = set()
    for _ in range(600):
        d = rng.randint(1, 3)
        symbols = (("f", rng.randint(0, 3)), ("g", rng.randint(0, 3)))
        equations = []
        for _ in range(rng.randint(1, 2)):
            nv = rng.randint(1, 3)
            sides = []
            for _ in range(2):
                name, arity = rng.choice(symbols)
                if rng.random() < 0.3:
                    sides.append(FlatTerm(None, (rng.randrange(nv),)))
                else:
                    sides.append(FlatTerm(name, tuple(rng.randrange(nv) for _ in range(arity))))
            equations.append(tuple(sides))
        system = H1IdentitySystem(symbols, tuple(equations))
        assignment = {}
        for name, arity in symbols:
            kind = rng.choice(("projection", "constant", "random"))
            if kind == "projection" and arity:
                assignment[name] = projection(d, arity, rng.randint(1, arity))
            elif kind == "constant":
                assignment[name] = OperationTable(d, arity, (rng.randrange(d),) * d**arity)
            else:
                assignment[name] = OperationTable(
                    d, arity, tuple(rng.randrange(d) for _ in range(d**arity)))
        got = satisfies_system(assignment, system)
        assert got == pointwise_satisfies(assignment, system), (system, assignment)
        answers.add(got)
    assert answers == {True, False}


def test_symbol_free_system_is_decided_without_a_domain():
    # "x = y" fails on every domain of two or more elements, and the search
    # refutes it there; on one element it holds, and the search finds the
    # empty assignment; with no symbol satisfies_system has no domain to
    # check it at
    system = parse_identity_system("x = y;")
    le = RelStructure.make(2, {"le": LE})
    assert find_operation_satisfying(le, system).outcome is Outcome.REFUTED
    point = RelStructure.make(1, {"le": [(0, 0)]})
    res = find_operation_satisfying(point, system)
    assert res.outcome is Outcome.FOUND and res.assignment == {}
    assert not satisfies_system({}, system)
    assert satisfies_system({}, parse_identity_system("x = x; y = y;"))


def test_satisfies_system_rejects_bad_assignment():
    sys = parse_identity_system("t(x,y) = t(y,x);")
    assert not satisfies_system({"t": projection(2, 2, 1)}, sys)


def test_identity_search_matches_brute_force_on_random_systems():
    # two binary symbols over random two-element structures: the joint
    # search space is small enough to enumerate outright
    import random
    rng = random.Random(5)
    shapes = [
        "f(x,y) = g(y,x);",
        "f(x,y) = g(x,x);",
        "f(x,x) = g(x,y);",
        "f(x,y) = f(y,x); g(x,y) = f(x,y);",
        "f(x,y) = x; g(x,y) = f(y,x);",
    ]
    for trial in range(25):
        k = rng.choice([1, 2, 3])
        all_tuples = list(itertools.product(range(2), repeat=k))
        tuples = rng.sample(all_tuples, rng.randint(1, len(all_tuples)))
        a = RelStructure.make(2, {"r": tuples})
        system = parse_identity_system(rng.choice(shapes))
        res = find_operation_satisfying(a, system)
        brute = None
        for tf in itertools.product(range(2), repeat=4):
            for tg in itertools.product(range(2), repeat=4):
                cand = {"f": OperationTable(2, 2, tf), "g": OperationTable(2, 2, tg)}
                if satisfies_system(cand, system) and \
                        all(is_polymorphism(op, a) for op in cand.values()):
                    brute = cand
                    break
            if brute:
                break
        assert res.found == (brute is not None), (trial, system)


def streamed(csp, node_limit=2000):
    """The solutions ``csp`` streams in index order before ``node_limit``
    nodes, its node count, and whether the stream ended on its own."""
    sols = []
    try:
        for sol in csp.solutions(budget=SearchBudget(node_limit=node_limit), order="index"):
            sols.append(sol)
    except BudgetExceededError:
        return sols, csp.nodes_explored, False
    return sols, csp.nodes_explored, True


def test_polymorphisms_are_the_homomorphisms_from_the_power():
    # Pol_n(A) = Hom(A^n, A): the CSP over the power's preservation scopes
    # and the CSP of the materialised power stream the tables of a CSP of
    # the power compiled without any memo, with its nodes, whether A's memo
    # of compiled forms starts cold or was filled by a Siggers search and a
    # pp evaluation.  A search stopped by its node limit must still agree
    # on what it streamed.
    import random
    rng = random.Random(53)
    for _ in range(40):
        d = rng.choice((2, 3))
        rels = {f"r{i}": random_rows(rng, d, rng.randint(1, 3))
                for i in range(rng.randint(1, 2))}
        warm = RelStructure.make(d, rels)
        has_siggers(warm)
        # each relation on distinct variables, on a repeated one and on
        # one variable throughout: three equality patterns
        atoms = []
        for name, k in warm.signature.rel_names:
            atoms += [(name, tuple(range(k))), (name, (0,) + (1,) * (k - 1)), (name, (2,) * k)]
        evaluate_pp(warm, PPFormula(1, 2, tuple(atoms)))
        assert warm._csp_forms
        for n in (1, 2, 3):
            power = power_structure(warm, n)
            reference = Csp(power.size, d)
            for name, _ in power.signature.rel_names:
                reference.add_constraint(power.relations[name], warm.relations[name])
            want = streamed(reference)
            for a in (RelStructure.make(d, rels), warm):
                assert streamed(clonekit.clones._polymorphism_csp(a, n)) == want
            assert streamed(hom_csp(power.size, power.relations, warm)) == want
            if want[2]:
                assert ([f.table for f in all_polymorphisms(warm, n)]
                        == [h.map for h in all_homomorphisms(power, warm)] == want[0])
