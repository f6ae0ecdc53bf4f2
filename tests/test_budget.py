"""One deadline per decision: every search and long loop that is given a
budget reads the deadline the budget fixed when it was created.

A fake clock stands in for the time module of ``clonekit.search``, the only
module that reads the clock.  Each read returns the current fake second and
then advances the clock by one, so a read stands for one check interval of
work and the fake time at the end counts the reads a decision made.
"""

import math

import pytest

import clonekit.search
from clonekit import Outcome, RelStructure, SearchBudget
from clonekit.constructions import PPSearchBounds, bounded_pp_search, is_pp_definable
from clonekit.freestruct import (
    Coloring,
    _polymorphisms_by_arity,
    free_structure_over_polymorphisms,
    h1_homomorphism_exists,
    h1_to_projections,
    induced_operations,
    projection_test_structure,
)
from clonekit.homs import core_of, hom_equivalent
from clonekit.search import BudgetExceededError

from conftest import LE


class FakeClock:
    def __init__(self):
        self.now = 0

    def monotonic(self):
        t = self.now
        self.now += 1
        return t


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(clonekit.search, "time", fake)
    return fake


LE_S = RelStructure.make(2, {"le": LE, "s0": [(0,)], "s1": [(1,)]})
K2 = RelStructure.make(2, {"edge": [(0, 1), (1, 0)]})
K3 = RelStructure.make(3, {"edge": [(a, b) for a in range(3) for b in range(3) if a != b]})
PATH3 = RelStructure.make(3, {"edge": [(0, 1), (1, 0), (1, 2), (2, 1)]})

# Decisions made of several small searches, none of which reaches 64 nodes,
# so that no single search runs out on its own.  ``raises`` marks the
# decisions whose contract is to raise BudgetExceededError.
DECISIONS = {
    "core_of": (lambda budget: core_of(K3, budget), True),
    "hom_equivalent": (lambda budget: hom_equivalent(PATH3, K2, budget), False),
    "is_pp_definable": (lambda budget: is_pp_definable(LE_S, LE, 2, budget), True),
    "h1_homomorphism_exists": (lambda budget: h1_homomorphism_exists(
        LE_S, projection_test_structure(), budget), False),
    "h1_to_projections": (lambda budget: h1_to_projections(LE_S, budget), False),
    "bounded_pp_search": (lambda budget: bounded_pp_search(
        LE_S, LE_S, PPSearchBounds(1, 0, 1), budget), False),
}


@pytest.mark.parametrize("name", DECISIONS)
def test_one_deadline_bounds_a_multi_search_decision(clock, name):
    decide, raises = DECISIONS[name]
    # under a limit that never runs out, count the reads the decision makes
    result = decide(SearchBudget(time_limit_ms=1e12))
    assert getattr(result, "outcome", None) is not Outcome.BUDGET
    reads = clock.now
    # a limit that runs out halfway through the decision
    clock.now = 0
    limit = reads // 2 + 0.5
    budget = SearchBudget(time_limit_ms=limit * 1000)
    if raises:
        with pytest.raises(BudgetExceededError):
            decide(budget)
    else:
        assert decide(budget).outcome is Outcome.BUDGET
    # the decision ends within the limit plus one check interval: after the
    # check that finds the deadline passed, at most one more search starts,
    # and its entry check stops it
    assert clock.now - math.ceil(limit) <= 2
    assert reads >= 3  # budget creation and at least two searches


def test_no_time_limit_reads_no_clock(clock):
    for decide, _ in DECISIONS.values():
        decide(SearchBudget(node_limit=10**6))
    assert clock.now == 0


def test_h1_returns_budget_when_the_enumeration_runs_out(rxor_struct):
    res = h1_homomorphism_exists(rxor_struct, rxor_struct, SearchBudget(node_limit=1))
    assert res.outcome is Outcome.BUDGET
    assert (res.free, res.nodes) == (None, 0)


def _lifting_inputs():
    b = projection_test_structure()
    polys = _polymorphisms_by_arity(LE_S, None)
    for n in (1, 2, 3):
        polys[n]  # enumerated now, without a budget
    return b, polys


def test_lifting_loop_stops_at_the_deadline(clock):
    b, polys = _lifting_inputs()
    budget = SearchBudget(time_limit_ms=500)  # the next read is past it
    with pytest.raises(BudgetExceededError):
        free_structure_over_polymorphisms(LE_S, b, budget, polys)
    assert clock.now == 2
    clock.now = 0
    free_structure_over_polymorphisms(LE_S, b, SearchBudget(time_limit_ms=1e12), polys)
    # one read per lifted relation with tuples, each under 4096 members
    assert clock.now == 1 + sum(1 for name in b.signature.names() if b.relations[name])


def test_induced_operations_stop_at_the_deadline(clock):
    b, polys = _lifting_inputs()
    free = free_structure_over_polymorphisms(LE_S, b, None, polys)
    coloring = Coloring(tuple(0 for _ in free.carrier), False)
    members = [op for n in (1, 2, 3) for op in polys[n]]
    with pytest.raises(BudgetExceededError):
        induced_operations(free, coloring, members, SearchBudget(time_limit_ms=500))
    assert clock.now == 2
    # a long member list reads the clock once every 4096 members
    clock.now = 0
    many = members * (10_000 // len(members) + 1)
    out = induced_operations(free, coloring, many, SearchBudget(time_limit_ms=1e12))
    assert len(out) == len(many)
    assert clock.now == 1 + math.ceil(len(many) / 4096)
