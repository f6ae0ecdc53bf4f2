import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner

import clonekit
import clonekit.freestruct
from clonekit import (
    CapacityError,
    CloneGenSet,
    OperationTable,
    Outcome,
    BudgetExceededError,
    RelStructure,
    SearchBudget,
    all_polymorphisms,
    compose,
    core_of,
    find_coloring,
    free_structure,
    free_structure_over_polymorphisms,
    generate_to_arity,
    h1_homomorphism_exists,
    h1_to_projections,
    projection,
    projection_test_structure,
    verify_coloring,
)
from clonekit.cli import main
from clonekit.clones import _closure_of_tuples, is_polymorphism, minor_cells, operation_to_dict
from clonekit.freestruct import Coloring, _cayley, clone_members_to_arity, induced_operations
from clonekit.structures import serialize_structure

from conftest import MAX2, MIN2, MINORITY




NAND = OperationTable(2, 2, (1, 1, 1, 0))


def pi(b):
    """Generator-projection table for a two-element B."""
    return projection(2, 2, b + 1).table


def test_projection_clone_free_structure(le_plain, proj_clone):
    free = free_structure(proj_clone, le_plain)
    assert [op.table for op in free.carrier] == [pi(0), pi(1)]
    i0, i1 = free.gen_index
    assert free.lifted["le"] == tuple(sorted([(i0, i0), (i0, i1), (i1, i1)]))


def test_minority_clone_lifts_the_reversed_pair(le_plain, minority_clone):
    free = free_structure(minority_clone, le_plain)
    assert [op.table for op in free.carrier] == [pi(0), pi(1)]
    i0, i1 = free.gen_index
    assert (i1, i0) in free.lifted["le"]
    assert set(free.lifted["le"]) == {(i0, i0), (i0, i1), (i1, i0), (i1, i1)}


def test_full_clone_carrier_is_all_binary_tables(le_plain):
    # the Sheffer stroke generates every Boolean operation
    free = free_structure(CloneGenSet.of(2, [NAND]), le_plain)
    assert len(free.carrier) == 16


def test_carrier_over_polymorphisms_matches_enumeration(le_struct, rxor_struct, k3s):
    t = projection_test_structure()
    for a in (le_struct, rxor_struct, k3s):
        for b in (t, rxor_struct):
            if a.size**b.size > 2**16:
                continue
            free = free_structure_over_polymorphisms(a, b)
            assert [op.table for op in free.carrier] == \
                   [op.table for op in all_polymorphisms(a, b.size)]


def test_free_structure_over_polymorphisms_matches_generated_clone(
        le_struct, rxor_struct, le_plain, lattice_clone, minority_clone):
    # min and max generate Pol of the pointed order, minority generates
    # Pol(rxor_struct): the two builders must give the same free structure,
    # and a coloring must induce what composing with projections gives
    t = projection_test_structure()
    for a, gen in ((le_struct, lattice_clone), (rxor_struct, minority_clone)):
        for b in (t, le_plain, rxor_struct):
            by_polys = free_structure_over_polymorphisms(a, b)
            by_gens = free_structure(gen, b)
            assert [op.table for op in by_polys.carrier] == \
                   [op.table for op in by_gens.carrier], (a, b)
            assert by_polys.gen_index == by_gens.gen_index, (a, b)
            assert by_polys.lifted == by_gens.lifted, (a, b)
            res = find_coloring(by_polys)
            if not res.found:
                continue
            index = by_polys.carrier_index()
            members = clone_members_to_arity(a, 3)
            want = [tuple(res.coloring.map[index[compose(
                        f, [projection(a.size, b.size, v + 1) for v in bs]).table]]
                          for bs in itertools.product(range(b.size), repeat=f.arity))
                    for f in members]
            got = induced_operations(by_polys, res.coloring, members)
            assert [op.table for op in got] == want, (a, b)


def test_lifted_relations_are_a_fixpoint(le_plain, minority_clone, lattice_clone):
    # applying any generator componentwise to lifted tuples stays inside
    for gen in (minority_clone, lattice_clone):
        free = free_structure(gen, le_plain)
        index = free.carrier_index()
        for name, _ in le_plain.signature.rel_names:
            tuples = set(free.lifted[name])
            for g in gen.generators:
                for combo in itertools.product(tuples, repeat=g.arity):
                    out = tuple(
                        index[compose(g, [free.carrier[combo[i][j]]
                                          for i in range(g.arity)]).table]
                        for j in range(len(combo[0])))
                    assert out in tuples


def test_lifted_order_matches_ternary_member_characterization(
        le_plain, minority_clone, lattice_clone):
    # a pair (f, g) is in the lifted order iff some ternary member t has
    # f(x,y) = t(x,x,y) and g(x,y) = t(x,y,y)
    from clonekit import generate_to_arity
    for gen in (minority_clone, lattice_clone):
        free = free_structure(gen, le_plain)
        index = free.carrier_index()
        want = set()
        for t in generate_to_arity(gen, 3):
            left = tuple(t.apply(x, x, y) for x in (0, 1) for y in (0, 1))
            right = tuple(t.apply(x, y, y) for x in (0, 1) for y in (0, 1))
            want.add((index[left], index[right]))
        assert set(free.lifted["le"]) == want


def test_lifted_day_relation_matches_direct_minoring(minority_clone):
    # the minority clone's 8-ary members are the xors of odd-size variable
    # subsets; lifting an 8-tuple relation must agree with minoring them.
    # beta is alpha with labels 2 and 3 swapped, lifted by relabeling
    from clonekit.maltsev import day_structure
    day = day_structure()
    free = free_structure(minority_clone, day)
    index = free.carrier_index()
    for name in ("alpha", "beta"):
        rows = day.relations[name]
        cols = ([r[0] for r in rows], [r[1] for r in rows])
        want = set()
        for size in (1, 3, 5, 7):
            for chosen in itertools.combinations(range(8), size):
                def minor(col):
                    tab = []
                    for vec in itertools.product((0, 1), repeat=4):
                        acc = 0
                        for i in chosen:
                            acc ^= vec[col[i]]
                        tab.append(acc)
                    return tuple(tab)
                want.add((index[minor(cols[0])], index[minor(cols[1])]))
        assert set(free.lifted[name]) == want, name


def test_constant_coloring_for_reflexive_pointed_target(minority_clone):
    # every relation contains the constant tuple on element 0
    b = RelStructure.make(2, {"r": [(0, 0), (1, 1), (0, 1)]})
    free = free_structure(minority_clone, b)
    res = find_coloring(free, strong=False)
    assert res.found


def test_projection_clone_strongly_colorable_by_anything(proj_clone, le_plain, k3):
    for b in (le_plain, k3):
        free = free_structure(proj_clone, b)
        res = find_coloring(free, strong=True)
        assert res.found
        assert [res.coloring.map[i] for i in free.gen_index] == list(range(b.size))


def test_minority_clone_has_no_strong_order_coloring(minority_clone, le_plain):
    free = free_structure(minority_clone, le_plain)
    assert find_coloring(free, strong=True).outcome is Outcome.REFUTED
    # dropping the pinning gives a coloring again (constant 0 works: the
    # lifted order is the full square)
    assert find_coloring(free, strong=False).found


def test_strong_implies_plain_coloring(proj_clone, lattice_clone, le_plain):
    for gen in (proj_clone, lattice_clone):
        free = free_structure(gen, le_plain)
        if find_coloring(free, strong=True).found:
            assert find_coloring(free, strong=False).found


def test_verify_coloring_rejects_bad_maps(proj_clone, le_plain):
    free = free_structure(proj_clone, le_plain)
    res = find_coloring(free, strong=True)
    good = res.coloring
    assert verify_coloring(free, good)
    i0, i1 = free.gen_index
    bad = list(good.map)
    bad[i0], bad[i1] = 1, 0  # reverses the order pair
    assert not verify_coloring(free, Coloring(tuple(bad), strong=True))


def test_h1_exists_to_itself(rxor_struct):
    res = h1_homomorphism_exists(rxor_struct, rxor_struct)
    assert res.found
    assert verify_coloring(res.free, res.coloring)


def test_h1_rigid_triangle_to_projection_test(k3s):
    t = projection_test_structure()
    res = h1_homomorphism_exists(k3s, t)
    assert res.found
    for op in induced_operations(res.free, res.coloring, clone_members_to_arity(k3s, 3)):
        assert is_polymorphism(op, t)


def test_h1_pointed_order_has_none_to_projection_test(le_struct):
    t = projection_test_structure()
    res = h1_homomorphism_exists(le_struct, t)
    assert res.outcome is Outcome.REFUTED


def test_induced_operations_are_polymorphisms(minority_clone, le_plain):
    b = RelStructure.make(2, {"r": [(0, 0), (1, 1), (0, 1)]})
    free = free_structure(minority_clone, b)
    res = find_coloring(free, strong=False)
    assert res.found
    members = clone_members_to_arity(minority_clone, 3)
    for op in induced_operations(free, res.coloring, members):
        assert is_polymorphism(op, b)


def test_projection_test_structure_validates():
    t = projection_test_structure()
    for n in (1, 2, 3):
        polys = all_polymorphisms(t, n)
        assert [p.table for p in polys] == sorted(
            projection(2, n, i + 1).table for i in range(n))


def test_h1_to_projections_dual_oracles(k3s, rxor_struct, le_struct):
    one = RelStructure.make(1, {"u": [(0,)]})
    assert h1_to_projections(k3s).exists
    assert not h1_to_projections(rxor_struct).exists
    assert not h1_to_projections(le_struct).exists
    assert not h1_to_projections(one).exists


def test_h1_budget_is_inconclusive(le_struct):
    from clonekit import SearchBudget
    res = h1_to_projections(le_struct, SearchBudget(node_limit=1))
    assert res.outcome is Outcome.BUDGET


def test_triangle_on_random_boolean_structures():
    # the three independent procedures must agree on arbitrary Boolean
    # structures, singletons or not (height-1 identities transport along
    # the h1 homomorphisms between a structure and its pointed core)
    import random
    from clonekit import has_cyclic, has_siggers
    rng = random.Random(424242)
    t = projection_test_structure()
    for _ in range(25):
        rels = {}
        for i in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            pool = list(itertools.product(range(2), repeat=k))
            rels[f"r{i}"] = rng.sample(pool, rng.randint(1, len(pool)))
        if rng.random() < 0.5:
            rels["s0"] = [(0,)]
            rels["s1"] = [(1,)]
        a = RelStructure.make(2, rels)
        col = h1_homomorphism_exists(a, t).found
        sig = has_siggers(a).found
        cyc = has_cyclic(a, 3).found
        assert (not col) == sig == cyc, rels


def test_dual_oracles_agree_beyond_two_elements(k3s):
    # affine structure over a three-element group: Taylor side
    z3 = RelStructure.make(3, {
        "sum0": [(x, y, z) for x in range(3) for y in range(3)
                 for z in range(3) if (x + y + z) % 3 == 0],
        "s0": [(0,)], "s1": [(1,)], "s2": [(2,)]})
    res = h1_to_projections(z3)
    assert res.outcome is Outcome.REFUTED
    assert res.siggers.found
    # the rigid triangle sits on the other side
    assert h1_to_projections(k3s).exists


# -- the closure kernel against a naive closure over raw tables --------------

# operations of small clones on three elements, conjugated at random: random
# tables on three elements generate nearly every operation
_ON_THREE = {
    1: [lambda x: x, lambda x: (x + 1) % 3, lambda x: min(x, 1)],
    2: [min, max, lambda x, y: (x + y) % 3, lambda x, y: (x - y) % 3],
    3: [lambda x, y, z: sorted((x, y, z))[1], lambda x, y, z: (x - y + z) % 3],
}


def _random_operation(rng, d, arity):
    if d == 2 or arity == 0:
        return OperationTable(d, arity, tuple(rng.randrange(d) for _ in range(d**arity)))
    f, p = rng.choice(_ON_THREE[arity]), rng.sample(range(d), d)
    return OperationTable(d, arity, tuple(
        p[f(*(p.index(a) for a in args))]
        for args in itertools.product(range(d), repeat=arity)))


def _naive_free(gens, d, b):
    """Carrier and lifted relations of the free structure as sets of raw
    tables: every generator is applied pointwise to every combination, in
    full, until nothing new appears.  A 0-ary generator gives its constant."""
    width = d**b.size
    cells = list(itertools.product(range(d), repeat=b.size))
    proj = [tuple(c[v] for c in cells) for v in range(b.size)]

    def apply(g, combo, k):
        if g.arity == 0:
            return ((g.table[0],) * width,) * k
        return tuple(tuple(g.apply(*(t[j][x] for t in combo)) for x in range(width))
                     for j in range(k))

    def close(seeds):
        rel = set(seeds)
        k = len(next(iter(rel)))
        while True:
            more = {apply(g, combo, k) for g in gens
                    for combo in itertools.product(rel, repeat=g.arity)}
            if more <= rel:
                return rel
            rel |= more

    carrier = {t for (t,) in close((p,) for p in proj)}
    lifted = {name: close(tuple(proj[v] for v in t) for t in b.relations[name])
              for name, _ in b.signature.rel_names}
    return carrier, lifted


def _as_tables(free):
    return ({op.table for op in free.carrier},
            {name: {tuple(free.carrier[i].table for i in t) for t in ts}
             for name, ts in free.lifted.items()})


def test_closure_kernel_matches_naive_closure(monkeypatch):
    # random clones on two and three elements, generators of arity 0-3 and
    # relations of arity 1-3; each case also runs with the dense-table limit
    # at the smallest value that admits its carrier, where the Cayley tables
    # fill lazily and the block step has no mark
    fs, cl = clonekit.freestruct, clonekit.clones
    ran = set()

    def spy(module, name, tag):
        fn = getattr(module, name)

        def wrapped(*args):
            result = fn(*args)
            ran.add(tag(result))
            return result
        monkeypatch.setattr(module, name, wrapped)

    spy(fs, "_cayley", lambda rows: "lazy" if isinstance(rows, dict) else "filled")
    spy(cl._NumpyBody, "apply", lambda _: "numpy")
    spy(cl._PythonBody, "apply", lambda _: "python")
    rng = random.Random(20151015)
    seen = set()
    carriers = set()
    checked = 0
    while checked < 150:
        d = rng.choice((2, 3))
        # nb = 4 at d = 2 is the carrier of the Day structure
        nb = rng.choice((2, 3, 4)) if d == 2 else 2
        gens = [_random_operation(rng, d, rng.randint(0, 3))
                for _ in range(rng.randint(1, 2))]
        rels = {}
        for i in range(rng.randint(1, 2)):
            pool = list(itertools.product(range(nb), repeat=rng.randint(1, 3)))
            rels[f"r{i}"] = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        b = RelStructure.make(nb, rels)
        gen = CloneGenSet.of(d, gens)
        try:
            with monkeypatch.context() as m:
                m.setattr(clonekit.clones, "DEFAULT_TABLE_CAP", 16)
                size = len(generate_to_arity(gen, nb))
        except CapacityError:
            continue
        # keep the naive closure's full products small
        if max((size**k) ** g.arity for _, k in b.signature.rel_names for g in gens) > 70000:
            continue
        free = free_structure(gen, b)
        want = _naive_free(gens, d, b)
        assert _as_tables(free) == want, (gens, rels)
        with monkeypatch.context() as m:
            m.setattr(cl, "_DENSE_CELLS", max(d**nb, len(free.carrier)))
            assert _as_tables(free_structure(gen, b)) == want, (gens, rels)
        checked += 1
        carriers.add((d, nb))
        seen |= {(d, "gen", g.arity) for g in gens}
        seen |= {(d, "rel", k) for _, k in b.signature.rel_names}
    assert seen == {(d, kind, n) for d in (2, 3) for kind, ns in
                    (("gen", range(4)), ("rel", range(1, 4))) for n in ns}
    assert carriers == {(2, 2), (2, 3), (2, 4), (3, 2)}
    assert ran == {"lazy", "filled", "numpy", "python"}


def test_three_element_free_structure_leaves_numpy_unimported(tmp_path):
    # numpy serves only the two-element block step; importing it costs
    # memory that three-element decisions do not need
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(clonekit.__file__)))
    code = ("import sys; from clonekit import CloneGenSet, OperationTable, "
            "free_structure; from clonekit.maltsev import day_structure; "
            "add = OperationTable(3, 2, tuple((x + y) % 3 for x in range(3) "
            "for y in range(3))); "
            "free = free_structure(CloneGenSet.of(3, [add]), day_structure()); "
            "print(len(free.carrier), 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pkg_root}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["81", "False"]


def test_lattice_day_free_structure_stays_within_its_memory_bound(lattice_clone):
    # the numpy closure takes table cells a bounded chunk at a time; taking
    # whole columns instead (166 x 7,010 cells per coordinate) goes far over
    # the bound, which is the peak of the per-block kernel this one
    # replaced (4.43 MiB)
    import tracemalloc

    import numpy  # noqa: F401  -- importing it is not the closure's memory
    from clonekit.maltsev import day_structure

    day = day_structure()
    tracemalloc.start()
    try:
        free = free_structure(lattice_clone, day)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(free.lifted[name]) for name, _ in day.signature.rel_names] == [7010, 7010, 3226]
    assert peak < 4.5 * 2**20


def test_cayley_rows_match_pointwise_application(monkeypatch):
    # every row, filled whole and lazily, against g applied cell by cell to
    # the argument tables: random generators over all tables of a few
    # arguments (a carrier closed under anything) at d = 2, 3 and 4, the
    # carrier of min at |B| = 7, whose 128 cells overflow a base-2 int64
    # key, codes of exactly 256 values, and generators whose d^arity codes
    # do not fit in a byte
    rng = random.Random(53)

    def all_tables(d, nb):
        return list(itertools.product(range(d), repeat=d**nb))

    def random_op(d, n):
        return OperationTable(d, n, tuple(rng.randrange(d) for _ in range(d**n)))

    cases = []
    for d, nb, arities in ((2, 2, (1, 2, 3)), (2, 3, (1, 2)), (2, 4, (1,)), (2, 0, (8, 9)),
                           (3, 1, (1, 2, 3)), (3, 2, (1,)), (3, 0, (5, 6)),
                           (4, 1, (1, 2)), (4, 0, (4, 5))):
        cases += [(random_op(d, n), all_tables(d, nb)) for n in arities]
    cases.append((MIN2, [op.table for op in generate_to_arity(CloneGenSet.of(2, [MIN2]), 7)]))
    # min of the first two of six arguments over the carrier {x, y, min(x, y)}
    min6 = OperationTable(3, 6, tuple(min(args[:2]) for args in
                                      itertools.product(range(3), repeat=6)))
    cases.append((min6, [op.table for op in generate_to_arity(CloneGenSet.of(3, [min6]), 2)]))
    for g, tables in cases:
        d, n, f = g.domain_size, g.arity, len(tables)
        index = {t: i for i, t in enumerate(tables)}
        # the table lists g's values in lexicographic order of the arguments
        value = dict(zip(itertools.product(range(d), repeat=n), g.table))
        want = [[index[tuple(map(value.__getitem__, zip(*(tables[i] for i in (*head, j)))))]
                 for j in range(f)]
                for head in itertools.product(range(f), repeat=n - 1)]
        rows = _cayley(g, tables, index, None)
        assert isinstance(rows, list) and rows == want, g
        assert {type(v) for v in rows[-1]} == {int}
        with monkeypatch.context() as m:
            m.setattr(clonekit.clones, "_DENSE_CELLS", 0)
            lazy = _cayley(g, tables, index, None)
        assert isinstance(lazy, dict)
        assert [[lazy[h][j] for j in range(f)] for h in range(len(want))] == want, g
    assert {len(tables[0]) for _, tables in cases} == {1, 3, 4, 8, 9, 16, 128}
    assert 256 in {g.domain_size**g.arity for g, _ in cases}  # the most codes a byte holds
    assert {g.domain_size for g, _ in cases if g.domain_size**g.arity > 256} == {2, 3, 4}


def test_two_element_cayley_rejects_a_result_outside_the_carrier():
    # the carrier of min at arity 2 is x, y and min(x, y); without min(x, y)
    # it is not closed under min
    tables = [op.table for op in generate_to_arity(CloneGenSet.of(2, [MIN2]), 2)]
    assert tables[0] == (0, 0, 0, 1)
    rest = tables[1:]
    with pytest.raises(KeyError):
        _cayley(MIN2, rest, {t: i for i, t in enumerate(rest)}, None)


def test_closure_stops_once_it_holds_the_whole_power(monkeypatch):
    # lifted le of x - y + z mod 3 over the three-element chain holds all
    # 9**2 pairs of its nine-element carrier after two rounds; a third round
    # would apply the generator to every triple of pairs and find nothing
    maltsev = OperationTable(3, 3, tuple((x - y + z) % 3 for x, y, z in
                                         itertools.product(range(3), repeat=3)))
    tables = [op.table for op in generate_to_arity(CloneGenSet.of(3, [maltsev]), 3)]
    f, index = len(tables), {t: i for i, t in enumerate(tables)}
    rows = [[index[tuple(maltsev.apply(*cells) for cells in zip(tables[a], tables[b], tables[c]))]
             for c in range(f)] for a, b in itertools.product(range(f), repeat=2)]
    seeds = [(index[projection(3, 3, x + 1).table], index[projection(3, 3, y + 1).table])
             for x in range(3) for y in range(x, 3)]
    naive = set(seeds)
    while True:
        more = {(rows[a * f + b][c], rows[p * f + q][r])
                for a, p in naive for b, q in naive for c, r in naive}
        if more <= naive:
            break
        naive |= more
    assert len(naive) == f**2 == 81

    cl, sizes, seen = clonekit.clones, [], []
    start, apply = cl._PythonBody.start, cl._PythonBody.apply

    def spy_start(self, tuples):
        state = start(self, tuples)
        seen.append(state[0])
        return state

    def spy_apply(self, *args):
        sizes.append(len(seen[-1]))
        return apply(self, *args)

    monkeypatch.setattr(cl._PythonBody, "start", spy_start)
    monkeypatch.setattr(cl._PythonBody, "apply", spy_apply)
    assert _closure_of_tuples(seeds, [maltsev], [rows], f, 3) == tuple(sorted(naive))
    assert sizes and max(sizes) < f**2 and len(seen[-1]) == f**2
    monkeypatch.setattr(cl, "DEFAULT_TABLE_CAP", f**2 - 1)
    with pytest.raises(CapacityError):
        _closure_of_tuples(seeds, [maltsev], [rows], f, 3)


def test_h1_enumerates_each_polymorphism_arity_once(monkeypatch, tmp_path, k3s):
    # over the two-element projection-test structure the carrier reads all
    # of Pol_2, the singletons all of Pol_1, and 1-in-3 the cells of Pol_3
    # with at most two distinct arguments; the induced check reads the same
    # three (arity, cells) pairs, so each arity is searched once
    calls = []
    restrict = clonekit.freestruct.polymorphism_restrictions

    def counted(a, n, cells, *args):
        calls.append((n, cells))
        return restrict(a, n, cells, *args)

    monkeypatch.setattr(clonekit.freestruct, "polymorphism_restrictions", counted)
    t = projection_test_structure()
    res = h1_homomorphism_exists(k3s, t)
    assert res.found
    two_values = tuple(c for c, args in enumerate(itertools.product(range(3), repeat=3))
                       if len(set(args)) < 3)
    assert sorted(calls) == [(1, tuple(range(3))), (2, tuple(range(9))), (3, two_values)]
    monkeypatch.undo()
    # the h1 report lists the operation induced by every member, as before
    paths = {}
    for name, structure in (("a", k3s), ("t", t)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(serialize_structure(structure))
    out = tmp_path / "h1.json"
    run = CliRunner().invoke(main, ["h1", str(paths["a"]), "--target", str(paths["t"]),
                                    "--json", str(out)])
    assert run.exit_code == 0, run.output
    induced = induced_operations(res.free, res.coloring, clone_members_to_arity(k3s, 3))
    report = json.loads(out.read_text())
    assert report["certificates"]["induced"] == [operation_to_dict(op) for op in induced]


def test_h1_rejects_a_repeated_bad_induced_operation(monkeypatch, k3s):
    # each distinct induced table is checked once; a bad table that appears
    # twice must still raise.  The reflection kernel is forged where the
    # check calls it, at all of B^n; the lifting reads its relations' columns
    reflect = clonekit.freestruct._reflect

    def forged(d, h1, h2, sources, budget=None, columns=None):
        if columns is not None:
            return reflect(d, h1, h2, sources, budget, columns)
        (n, _), = sources
        return [(0,) * 3**n] * 2

    monkeypatch.setattr(clonekit.freestruct, "_reflect", forged)
    with pytest.raises(clonekit.CrossCheckError):
        h1_homomorphism_exists(k3s, k3s)


def _random_structure(rng: random.Random, size: int) -> RelStructure:
    """One or two random relations, ternary ones only on two elements; on
    four elements also the singletons of two to four elements, which pin
    them in every polymorphism and so keep Pol_3 small enough to list."""
    rels = {}
    for j in range(rng.randint(1, 2)):
        k = rng.choice((1, 2, 2, 3)) if size == 2 else rng.choice((1, 2, 2))
        cube = list(itertools.product(range(size), repeat=k))
        rels[f"r{j}"] = rng.sample(cube, rng.randint(1, len(cube)))
    if size == 4:
        rels.update((f"s{v}", [(v,)]) for v in rng.sample(range(4), rng.randint(2, 4)))
    return RelStructure.make(size, rels)


def _lifting_from_full_lists(a: RelStructure, b: RelStructure):
    """The carrier tables and lifted relations of the free structure of
    Pol(a) over b, read from full lists of Pol_m(a): each member's minors
    per column, deduplicated."""
    d, nb = a.size, b.size
    carrier = all_polymorphisms(a, nb)
    index = {op.table: i for i, op in enumerate(carrier)}
    lifted = {}
    for name, k in b.signature.rel_names:
        rows = b.relations[name]
        minors = [minor_cells(d, [row[j] for row in rows], nb) for j in range(k)]
        lifted[name] = tuple(sorted({tuple(index[tuple(f.table[c] for c in cells)]
                                           for cells in minors)
                                     for f in all_polymorphisms(a, len(rows))}))
    return [op.table for op in carrier], lifted


def test_h1_oracle_reads_restrictions_as_full_lists_would():
    # seeded random sources of sizes 2-4, cores and not, against targets of
    # sizes 2 and 3: the lifted relations and the distinct induced tables of
    # a random map of the carrier, from restrictions and from full lists
    rng = random.Random(1810)
    seen = {"core": 0, "not a core": 0, "size 4": 0, "target size 3": 0,
            "fewer restrictions than members": 0}
    cases = 0
    while cases < 24:
        a = _random_structure(rng, rng.choice((2, 3, 4, 4)))
        nb = rng.choice((2, 3))
        b = RelStructure.make(nb, {
            f"t{k}": rng.sample(list(itertools.product(range(nb), repeat=k)),
                                rng.randint(1, min(3, nb**k)))
            for k in rng.sample((1, 2, 3), 2)})
        try:
            all_polymorphisms(a, 3, SearchBudget(node_limit=500))
        except BudgetExceededError:
            continue  # too many ternary polymorphisms to list here
        cases += 1
        restrictions = clonekit.freestruct._restrictions_by_cells(a, None)
        free = free_structure_over_polymorphisms(a, b, None, restrictions)
        carrier, lifted = _lifting_from_full_lists(a, b)
        assert [op.table for op in free.carrier] == carrier, (a, b)
        assert free.lifted == lifted, (a, b)
        coloring = Coloring(tuple(rng.randrange(b.size) for _ in carrier), False)
        members = clone_members_to_arity(a, 3)
        # the h1 check's reflection of the restrictions, as the oracle calls it
        h1 = [free.carrier[i].table for i in free.gen_index]
        h2 = {op.table: c for op, c in zip(free.carrier, coloring.map)}
        from_restrictions = {
            OperationTable(b.size, n, t) for n in range(1, 4)
            for t in clonekit.clones._reflect(a.size, h1, h2,
                                              [(n, lambda cells: restrictions[n, cells])])}
        assert from_restrictions == set(induced_operations(free, coloring, members)), (a, b)
        seen["core" if core_of(a).core.size == a.size else "not a core"] += 1
        seen["size 4"] += a.size == 4
        seen["target size 3"] += b.size == 3
        seen["fewer restrictions than members"] += sum(map(len, restrictions.values())) < len(
            members) + len(carrier)
    assert all(n >= 3 for n in seen.values()), seen


_RELABELED_CLONES = [
    (2, "lattice", [MIN2, MAX2]),
    (2, "majority", [OperationTable(2, 3, (0, 0, 0, 1, 0, 1, 1, 1))]),
    (2, "minority", [MINORITY]),
    (3, "x+y mod 3", [OperationTable(3, 2, tuple((x + y) % 3 for x in range(3)
                                                 for y in range(3)))]),
]


def test_relabeled_lifting_matches_its_own_closure(monkeypatch):
    # seeded B on 2-4 elements with a relation r, its image under a random
    # permutation sigma, and a relation of as many tuples not isomorphic to
    # r; every lifted relation equals the closure of its own seeds, and only
    # r and the other relation run a closure in free_structure.  A 3-cycle
    # sigma tells the isomorphism from its inverse
    fs = clonekit.freestruct
    closures = []
    closure = fs._closure_of_tuples
    counted = lambda *args: closures.append(1) or closure(*args)  # noqa: E731
    rng = random.Random(250)
    seen = {name: 0 for _, name, _ in _RELABELED_CLONES} | {"3-cycle": 0, "inverse differs": 0}
    cases = 0
    while cases < 48:
        d, clone, gens = rng.choice(_RELABELED_CLONES)
        nb = rng.choice((2, 3, 4))
        k = rng.choice((1, 2)) if nb == 4 and clone == "lattice" else rng.choice((1, 2, 3))
        cube = list(itertools.product(range(nb), repeat=k))
        count = rng.randint(1, min(4, len(cube) - 1))
        r = rng.sample(cube, count)
        perms = list(itertools.permutations(range(nb)))
        sigma = rng.choice(perms)
        others = [o for o in (rng.sample(cube, count) for _ in range(30))
                  if all({tuple(p[v] for v in t) for t in r} != set(o) for p in perms)]
        if not others:
            continue
        rels = {"r": r, "copy": [tuple(sigma[v] for v in t) for t in r], "other": others[0]}
        names = rng.sample(list(rels), 3)
        b = RelStructure.make(nb, {n: rels[n] for n in names})
        gen = CloneGenSet.of(d, gens)
        closures.clear()
        with monkeypatch.context() as m:
            m.setattr(fs, "_closure_of_tuples", counted)
            free = free_structure(gen, b)
        assert len(closures) == 2, (clone, b)
        tables = [op.table for op in free.carrier]
        index = free.carrier_index()
        acting = gen.acting()
        cayleys = [_cayley(g, tables, index, None) for g in acting]
        for name in names:
            seeds = [tuple(free.gen_index[v] for v in t) for t in b.relations[name]]
            assert free.lifted[name] == _closure_of_tuples(
                seeds, acting, cayleys, len(tables), d), (clone, b, name)
        cases += 1
        seen[clone] += 1
        seen["3-cycle"] += any(sigma[v] != v == sigma[sigma[sigma[v]]] for v in range(nb))
        first, second = sorted(("r", "copy"), key=names.index)
        tau = clonekit.find_isomorphism(RelStructure.make(nb, {"x": rels[first]}),
                                        RelStructure.make(nb, {"x": rels[second]}))
        inverse = [tau.map.index(v) for v in range(nb)]
        seen["inverse differs"] += ({tuple(inverse[v] for v in t) for t in rels[first]}
                                    != b.tuple_set(second))
    assert all(n >= 3 for n in seen.values()), seen


def test_node_limit_leaves_a_relabeling_to_the_closure(monkeypatch, tmp_path, lattice_clone):
    # the isomorphism search for Day's beta takes more than one node; a node
    # limit that stops it costs beta its own closure, not the decision
    from clonekit.maltsev import day_structure
    fs = clonekit.freestruct
    closures = []
    closure = fs._closure_of_tuples
    monkeypatch.setattr(fs, "_closure_of_tuples",
                        lambda *args: closures.append(1) or closure(*args))
    day = day_structure()
    free = free_structure(lattice_clone, day)
    assert len(closures) == 2
    limited = free_structure(lattice_clone, day, SearchBudget(node_limit=1))
    assert len(closures) == 5
    assert limited.lifted == free.lifted
    clone = tmp_path / "lattice.json"
    clone.write_text(json.dumps({"domain_size": 2, "operations": [
        operation_to_dict(op) for op in lattice_clone.generators]}))
    res = CliRunner().invoke(main, ["maltsev", str(clone), "--test", "modular",
                                    "--budget-nodes", "1"])
    assert res.exit_code == 0, res.output


def test_h1_lifting_over_the_table_cap_exits_2(tmp_path, le_struct):
    # a target relation of 21 tuples needs Pol_21 of a two-element source,
    # 2**21 cells: the polymorphism search refuses it
    cube = sorted(itertools.product(range(3), repeat=3))
    b = RelStructure.make(3, {"r": cube[:21]})
    with pytest.raises(CapacityError):
        free_structure_over_polymorphisms(le_struct, b)
    src, dst = tmp_path / "le.json", tmp_path / "t21.json"
    src.write_text(serialize_structure(le_struct))
    dst.write_text(serialize_structure(b))
    res = CliRunner().invoke(main, ["h1", str(src), "--target", str(dst)])
    assert res.exit_code == 2, res.output
