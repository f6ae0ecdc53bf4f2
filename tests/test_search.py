"""The CSP kernel against brute force and a naive GAC written here.

Random small CSPs mix unary, binary and ternary relations, each added in
one call on several scopes.  Scopes repeat variables, one relation lands on
several pairs, and two relations land on one pair, so the compiled forms
that a call shares between its scopes are exercised.
"""

import itertools
import random

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


def naive_gac(nvars: int, d: int, calls) -> list[set[int]]:
    """GAC fixpoint over the raw scopes.  Constraints whose scopes hold the
    same two variables act as one constraint, as in the kernel."""
    groups: dict = {}
    for i, (scope, allowed) in enumerate(raw_constraints(calls)):
        vs = tuple(sorted(set(scope)))
        key = vs if len(vs) == 2 else i
        groups.setdefault(key, (vs, []))[1].append((scope, allowed))
    doms = [set(range(d)) for _ in range(nvars)]
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


def test_relation_shared_by_two_pairs_keeps_each_pair_apart():
    # ne on (0,1) and (3,2) shares one compiled form; le then narrows (0,1) only
    csp = Csp(4, 2)
    csp.add_constraint([(0, 1), (3, 2)], [(0, 1), (1, 0)])
    csp.add_constraint([(0, 1)], [(0, 0), (0, 1), (1, 1)])
    assert list(csp.solutions(order="index")) == [(0, 1, 0, 1), (0, 1, 1, 0)]
