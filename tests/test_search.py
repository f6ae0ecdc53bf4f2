"""The CSP kernel against brute force and a naive GAC written here.

Random small CSPs mix unary, binary and ternary relations, each added in
one call on several scopes.  Scopes repeat variables, one relation lands on
several pairs, and two relations land on one pair, so the compiled forms
that a call shares between its scopes are exercised.
"""

import itertools
import random

import pytest

from clonekit.search import Csp


def random_calls(rng: random.Random, nvars: int, d: int):
    calls = []
    for _ in range(rng.randint(1, 6)):
        k = rng.choice((1, 2, 2, 3, 3))
        universe = list(itertools.product(range(d), repeat=k))
        allowed = rng.sample(universe, rng.randint(len(universe) // 3, len(universe)))
        scopes = [tuple(rng.randrange(nvars) for _ in range(k))
                  for _ in range(rng.randint(1, 4))]
        calls.append((scopes, allowed))
    return calls


def build(nvars: int, d: int, calls) -> Csp:
    csp = Csp(nvars, d)
    for scopes, allowed in calls:
        csp.add_constraint(scopes, allowed)
    return csp


def raw_constraints(calls):
    return [(scope, frozenset(allowed)) for scopes, allowed in calls for scope in scopes]


def brute_force(nvars: int, d: int, calls) -> list[tuple[int, ...]]:
    cons = raw_constraints(calls)
    return [x for x in itertools.product(range(d), repeat=nvars)
            if all(tuple(x[v] for v in scope) in allowed for scope, allowed in cons)]


def naive_gac(nvars: int, d: int, calls, doms=None) -> list[set[int]]:
    """GAC fixpoint over the raw scopes, from full domains or from ``doms``.
    Constraints whose scopes hold the same two variables act as one
    constraint, as in the kernel."""
    groups: dict = {}
    for i, (scope, allowed) in enumerate(raw_constraints(calls)):
        vs = tuple(sorted(set(scope)))
        key = vs if len(vs) == 2 else i
        groups.setdefault(key, (vs, []))[1].append((scope, allowed))
    doms = [set(s) for s in doms] if doms else [set(range(d)) for _ in range(nvars)]
    changed = True
    while changed:
        changed = False
        for vs, members in groups.values():
            support = {v: set() for v in vs}
            for vals in itertools.product(*(sorted(doms[v]) for v in vs)):
                val = dict(zip(vs, vals))
                if all(tuple(val[v] for v in scope) in allowed
                       for scope, allowed in members):
                    for v in vs:
                        support[v].add(val[v])
            for v in vs:
                if support[v] != doms[v]:
                    doms[v] = support[v]
                    changed = True
    return doms


def reference_nodes(nvars: int, d: int, calls, order: str) -> int:
    """The nodes of a depth-first search that enumerates every solution and
    propagates with naive_gac, branching as the kernel does: ascending values
    of the first unfixed variable ('index') or of the first one with the
    smallest domain ('mindom').  The root is not a node."""
    nodes = 0

    def visit(doms):
        nonlocal nodes
        unfixed = [v for v in range(nvars) if len(doms[v]) > 1]
        if not unfixed:
            return
        var = unfixed[0] if order == "index" else min(unfixed, key=lambda v: len(doms[v]))
        for value in sorted(doms[var]):
            nodes += 1
            child = naive_gac(nvars, d, calls, doms[:var] + [{value}] + doms[var + 1:])
            if all(child):
                visit(child)

    root = naive_gac(nvars, d, calls)
    if all(root):
        visit(root)
    return nodes


def root_fixpoint(csp: Csp) -> list[int] | None:
    dom = list(csp.dom)
    if csp._failed or not csp._propagate(dom, range(csp.nvars)):
        return None
    return dom


def test_kernel_matches_brute_force_and_naive_gac():
    rng = random.Random(20261018)
    seen = {"repeated variable": 0, "pair shared by two relations": 0,
            "relation on several pairs": 0, "ternary": 0, "solvable": 0,
            "wiped out at the root": 0}
    for case in range(300):
        nvars, d = rng.randint(2, 6), rng.randint(1, 4)
        calls = random_calls(rng, nvars, d)
        expected = brute_force(nvars, d, calls)
        assert list(build(nvars, d, calls).solutions(order="index")) == expected, case
        got = list(build(nvars, d, calls).solutions(order="mindom"))
        assert len(got) == len(set(got)) and set(got) == set(expected), case

        naive = naive_gac(nvars, d, calls)
        fix = root_fixpoint(build(nvars, d, calls))
        if any(not s for s in naive):
            assert fix is None, case
            seen["wiped out at the root"] += 1
        else:
            assert fix == [sum(1 << v for v in s) for s in naive], case

        pairs: dict = {}
        for call, (scopes, _) in enumerate(calls):
            distinct = [s for s in scopes if len(set(s)) == 2]
            seen["repeated variable"] += any(len(set(s)) < len(s) for s in scopes)
            seen["ternary"] += any(len(set(s)) == 3 for s in scopes)
            seen["relation on several pairs"] += len({frozenset(s) for s in distinct}) > 1
            for s in distinct:
                pairs.setdefault(frozenset(s), set()).add(call)
        seen["pair shared by two relations"] += any(len(c) > 1 for c in pairs.values())
        seen["solvable"] += bool(expected)
    assert all(n >= 20 for n in seen.values()), seen


def test_kernel_matches_brute_force_past_one_chunk():
    # domains of 9 and 17 values need two and three 8-value chunks of the
    # union tables; drawn from their own generator, after the draws above
    rng = random.Random(917)
    narrowed = third = 0
    for d, max_vars, draws in ((9, 3, 20), (17, 3, 4)):
        for case in range(draws):
            nvars = rng.randint(2, max_vars)
            calls = random_calls(rng, nvars, d)
            expected = brute_force(nvars, d, calls)
            assert list(build(nvars, d, calls).solutions(order="index")) == expected, (d, case)
            naive = naive_gac(nvars, d, calls)
            fix = root_fixpoint(build(nvars, d, calls))
            if any(not s for s in naive):
                assert fix is None, (d, case)
            else:
                assert fix == [sum(1 << v for v in s) for s in naive], (d, case)
                narrowed += any(max(s) >= 8 and len(s) < d for s in naive)
                third += any(max(s) >= 16 and len(s) < d for s in naive)
    assert narrowed >= 10 and third >= 2


def test_constraint_added_after_propagation_counts():
    # the first propagation sets up the union tables of ne; le added later
    # on the same pair must be seen by the next propagation
    csp = Csp(2, 9)
    csp.add_constraint([(0, 1)], [(a, b) for a in range(9) for b in range(9) if a != b])
    assert root_fixpoint(csp) == [0x1FF, 0x1FF]
    assert len(list(csp.solutions(order="index"))) == 72
    csp.add_constraint([(0, 1)], [(a, b) for a in range(9) for b in range(9) if a <= b])
    assert root_fixpoint(csp) == [0x0FF, 0x1FE]
    assert list(csp.solutions(order="index")) == [
        (a, b) for a in range(9) for b in range(9) if a < b]


def test_relation_shared_by_two_pairs_keeps_each_pair_apart():
    # ne on (0,1) and (3,2) shares one compiled form; le then narrows (0,1) only
    csp = Csp(4, 2)
    csp.add_constraint([(0, 1), (3, 2)], [(0, 1), (1, 0)])
    csp.add_constraint([(0, 1)], [(0, 0), (0, 1), (1, 1)])
    assert list(csp.solutions(order="index")) == [(0, 1, 0, 1), (0, 1, 1, 0)]


def grouped_calls(rng: random.Random, nvars: int, d: int):
    """Binary and ternary relations, each on several scopes that share one
    variable at one position, so a variable's support lists to several far
    ends are equal and its group holds them all."""
    calls = []
    for _ in range(rng.randint(2, 5)):
        k = rng.choice((2, 2, 3))
        universe = list(itertools.product(range(d), repeat=k))
        allowed = rng.sample(universe, rng.randint(len(universe) // 3, len(universe) - 1))
        hub, at = rng.randrange(nvars), rng.randrange(k)
        rest = [v for v in range(nvars) if v != hub]
        scopes = []
        for _ in range(rng.randint(2, 4)):
            others = rng.sample(rest, k - 1)
            scopes.append(tuple(others[:at] + [hub] + others[at:]))
        calls.append((scopes, allowed))
    return calls


def test_node_counts_match_a_search_with_naive_gac():
    rng = random.Random(1011)
    seen = {"group of several far ends": 0, "pair shared by two relations": 0,
            "ternary": 0, "narrowed past one chunk": 0, "nodes": 0}
    for case in range(100):
        nvars, d = (rng.randint(3, 5), rng.randint(2, 4)) if case % 5 else (3, 9)
        calls = grouped_calls(rng, nvars, d)
        csp = build(nvars, d, calls)
        naive = naive_gac(nvars, d, calls)
        fix = root_fixpoint(csp)
        assert fix == (None if not all(naive) else [sum(1 << v for v in s) for s in naive]), case
        for order in ("index", "mindom"):
            csp = build(nvars, d, calls)
            got = list(csp.solutions(order=order))
            assert sorted(got) == brute_force(nvars, d, calls), (case, order)
            assert csp.nodes_explored == reference_nodes(nvars, d, calls, order), (case, order)
        seen["nodes"] += csp.nodes_explored
        seen["group of several far ends"] += any(
            len(far) > 1 for groups in csp._groups for _, _, far in groups)
        pairs = [frozenset(s) for scopes, _ in calls for s in scopes if len(s) == 2]
        seen["pair shared by two relations"] += len(pairs) > len(set(pairs))
        seen["ternary"] += bool(csp._nary)
        seen["narrowed past one chunk"] += d > 8 and fix is not None and any(
            m >> 8 and m != (1 << d) - 1 for m in fix)
    assert all(n >= 5 for n in seen.values()), seen


def test_universal_relations_change_nothing():
    # every tuple of a universal relation is allowed, so the kernel drops it;
    # on plain and repeated scopes it must leave the search as it was
    rng = random.Random(4242)
    for case in range(60):
        nvars, d = (rng.randint(2, 5), rng.choice((2, 3))) if case % 4 else (rng.randint(2, 3), 9)
        calls = random_calls(rng, nvars, d)
        universal = []
        for k in (1, 2, 3):
            scopes = [tuple(rng.randrange(nvars) for _ in range(k)) for _ in range(3)]
            universal.append((scopes, list(itertools.product(range(d), repeat=k))))
        mixed = calls[:1] + universal + calls[1:]
        plain, with_universal = build(nvars, d, calls), build(nvars, d, mixed)
        assert with_universal._bin == plain._bin and with_universal._nary == plain._nary
        assert root_fixpoint(with_universal) == root_fixpoint(plain), case
        for order in ("index", "mindom"):
            plain, with_universal = build(nvars, d, calls), build(nvars, d, mixed)
            assert list(with_universal.solutions(order=order)) == list(plain.solutions(order=order))
            assert with_universal.nodes_explored == plain.nodes_explored, (case, order)


def test_projected_solutions_are_the_distinct_restrictions():
    # random CSPs with unary, binary and ternary relations and repeated
    # scopes; the projection on a random ordered subset of the variables
    # against the sorted distinct restrictions of the brute-force solutions,
    # and on every variable in index order against order='index'
    rng = random.Random(18)
    seen = {"ternary": 0, "repeated variable": 0, "fewer than all": 0,
            "several extensions": 0, "d over 8": 0}
    for case in range(200):
        d = rng.randint(1, 4) if case % 4 else rng.randint(5, 9)
        nvars = rng.randint(2, 6 if d <= 4 else 3)
        calls = random_calls(rng, nvars, d)
        solutions = brute_force(nvars, d, calls)
        project = rng.sample(range(nvars), rng.randint(0, nvars))
        expected = sorted({tuple(x[v] for v in project) for x in solutions})
        assert list(build(nvars, d, calls).solutions(project=project)) == expected, case
        by_index, projected = build(nvars, d, calls), build(nvars, d, calls)
        assert list(projected.solutions(project=range(nvars))) == list(
            by_index.solutions(order="index")), case
        assert projected.nodes_explored == by_index.nodes_explored, case
        seen["ternary"] += any(len(set(s)) == 3 for scopes, _ in calls for s in scopes)
        seen["repeated variable"] += any(len(set(s)) < len(s) for scopes, _ in calls for s in scopes)
        seen["fewer than all"] += len(project) < nvars
        seen["several extensions"] += len(expected) < len(solutions)
        seen["d over 8"] += d > 8
    assert all(n >= 10 for n in seen.values()), seen


def snapshot(csp: Csp):
    """A copy of the constraints of ``csp``, by value and in order."""
    return (list(csp.dom), csp._failed,
            [(pair, tuple(map(tuple, sups))) for pair, sups in csp._bin.items()],
            list(csp._nary), [list(ids) for ids in csp._var_narys])


def test_conjoin_equals_adding_the_constraints_in_sequence():
    # CSPs built from two or three batches of random calls, conjoined in
    # order, against one CSP that adds every call in sequence; the batches
    # share variable pairs, so conjoin intersects their support lists
    rng = random.Random(1920)
    seen = {"pair in two batches": 0, "ternary": 0, "repeated variable": 0,
            "unary": 0, "wiped out": 0, "solvable": 0}
    for case in range(200):
        d = rng.randint(1, 4) if case % 4 else rng.randint(5, 9)
        nvars = rng.randint(2, 6 if d <= 4 else 3)
        batches = [random_calls(rng, nvars, d) for _ in range(rng.randint(2, 3))]
        parts = [build(nvars, d, calls) for calls in batches]
        before = list(map(snapshot, parts))
        conjoined = parts[0]
        for part in parts[1:]:
            conjoined = conjoined.conjoin(part)
        every = [call for calls in batches for call in calls]
        assert snapshot(conjoined) == snapshot(build(nvars, d, every)), case
        assert root_fixpoint(conjoined) == root_fixpoint(build(nvars, d, every)), case
        for order in ("index", "mindom"):
            sequential = build(nvars, d, every)
            got = list(conjoined.solutions(order=order))
            assert got == list(sequential.solutions(order=order)), (case, order)
            assert conjoined.nodes_explored == sequential.nodes_explored, (case, order)
        assert list(map(snapshot, parts)) == before, case
        pairs = [{frozenset(s) for scopes, _ in calls for s in scopes if len(set(s)) == 2}
                 for calls in batches]
        seen["pair in two batches"] += any(p & q for p, q in itertools.combinations(pairs, 2))
        scopes = [s for scopes, _ in every for s in scopes]
        seen["ternary"] += any(len(set(s)) == 3 for s in scopes)
        seen["repeated variable"] += any(len(set(s)) < len(s) for s in scopes)
        seen["unary"] += any(len(set(s)) == 1 for s in scopes)
        seen["wiped out"] += root_fixpoint(conjoined) is None
        seen["solvable"] += bool(got)
    assert all(n >= 10 for n in seen.values()), seen


def test_conjoin_needs_equal_shapes():
    with pytest.raises(ValueError):
        Csp(3, 2).conjoin(Csp(2, 2))
    with pytest.raises(ValueError):
        Csp(2, 3).conjoin(Csp(2, 2))


def repeated_pair_calls(rng: random.Random, nvars: int, d: int):
    """Binary relations on pairs of distinct variables, each call followed
    by a second one on the same pairs: the relation again, its converse on
    the reversed scopes, a symmetric relation on the reversed scopes, or a
    different relation on some of the pairs.  Returns the kind of each
    pair of calls and the calls, a call's first and second in turn."""
    universe = list(itertools.product(range(d), repeat=2))
    kinds, calls = [], []
    for _ in range(rng.randint(1, 4)):
        allowed = rng.sample(universe, rng.randint(len(universe) // 3, len(universe)))
        scopes = [tuple(rng.sample(range(nvars), 2)) for _ in range(rng.randint(1, 3))]
        kind = rng.choice(("again", "converse", "symmetric", "different"))
        reversed_scopes = [(y, x) for x, y in scopes]
        if kind == "again":
            second = (scopes, allowed)
        elif kind == "converse":
            second = (reversed_scopes, [(b, a) for a, b in allowed])
        elif kind == "symmetric":
            allowed = sorted(set(allowed) | {(b, a) for a, b in allowed})
            second = (reversed_scopes, allowed)
        else:
            other = rng.sample(universe, rng.randint(len(universe) // 3, len(universe)))
            second = (scopes[:rng.randint(1, len(scopes))], other)
        kinds.append(kind)
        calls += [(scopes, allowed), second]
    return kinds, calls


def one_relation_per_pair(nvars: int, d: int, calls) -> Csp:
    """The CSP of ``calls`` with one pre-intersected relation per pair."""
    relations: dict = {}
    for scopes, allowed in calls:
        for x, y in scopes:
            oriented = set(allowed) if x < y else {(b, a) for a, b in allowed}
            key = (min(x, y), max(x, y))
            relations[key] = relations.get(key, oriented) & oriented
    csp = Csp(nvars, d)
    for pair, allowed in relations.items():
        csp.add_constraint([pair], sorted(allowed))
    return csp


def test_repeated_pairs_match_one_intersected_relation_per_pair():
    # a pair given the same constraint twice, in either orientation, and a
    # pair given two different ones; also conjoined, the first call of each
    # kind in one CSP and the second in the other, so the two share pairs
    # with equal support lists
    rng = random.Random(2020)
    seen = {"again": 0, "converse": 0, "symmetric": 0, "different": 0,
            "past one chunk": 0, "solvable": 0, "wiped out": 0}
    for case in range(200):
        d = rng.randint(1, 4) if case % 5 else 9
        nvars = rng.randint(2, 5 if d <= 4 else 3)
        kinds, calls = repeated_pair_calls(rng, nvars, d)
        expected = brute_force(nvars, d, calls)
        for order in ("index", "mindom"):
            reference = one_relation_per_pair(nvars, d, calls)
            want = list(reference.solutions(order=order))
            first, second = build(nvars, d, calls[::2]), build(nvars, d, calls[1::2])
            for csp in (build(nvars, d, calls), first.conjoin(second)):
                assert list(csp.solutions(order=order)) == want, (case, order)
                assert csp.nodes_explored == reference.nodes_explored, (case, order)
        assert sorted(want) == expected, case
        assert root_fixpoint(build(nvars, d, calls)) == root_fixpoint(reference), case
        for kind in kinds:
            seen[kind] += 1
        seen["past one chunk"] += d > 8
        seen["solvable"] += bool(expected)
        seen["wiped out"] += root_fixpoint(reference) is None
    assert all(n >= 10 for n in seen.values()), seen


def test_an_equal_second_constraint_leaves_the_pair_as_it_is():
    # equal support lists, from one memo or compiled again, in either
    # orientation, keep the first lists; a different relation replaces them
    # with their intersection and changes no compiled form
    ne = [(a, b) for a in range(3) for b in range(3) if a != b]
    forms: dict = {}
    csp = Csp(3, 3)
    csp.add_constraint([(0, 1), (2, 1)], ne, forms)
    held = dict(csp._bin)
    csp.add_constraint([(1, 0), (1, 2)], ne, forms)
    csp.add_constraint([(0, 1)], list(ne))
    other = Csp(3, 3)
    other.add_constraint([(1, 2)], list(reversed(ne)))
    conjoined = csp.conjoin(other)
    assert all(csp._bin[pair] is held[pair] is conjoined._bin[pair] for pair in held)
    compiled = tuple(map(list, forms[0, 1]))
    csp.add_constraint([(0, 1)], [(a, b) for a in range(3) for b in range(3) if a <= b])
    assert csp._bin[0, 1] == ([0b110, 0b100, 0], [0, 0b1, 0b11])
    assert tuple(map(list, forms[0, 1])) == compiled and csp._bin[1, 2] is held[1, 2]
    assert list(csp.solutions(order="index")) == [(0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 1),
                                                  (1, 2, 0), (1, 2, 1)]
