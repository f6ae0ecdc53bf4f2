"""One deadline per decision: every search and long loop that is given a
budget reads the deadline the budget fixed when it was created.

A fake clock stands in for the time module of ``clonekit.search``, the only
module that reads the clock.  Each read returns the current fake second and
then advances the clock by one, so a read stands for one check interval of
work and the fake time at the end counts the reads a decision made.
"""

import itertools
import json
import math
import random

import pytest
from click.testing import CliRunner

import clonekit.clones
import clonekit.search
from clonekit import CloneGenSet, OperationTable, Outcome, RelStructure, SearchBudget
from clonekit.cli import main
from clonekit.clones import (
    _polymorphism_csp,
    all_polymorphisms,
    clone_to_dict,
    generate_to_arity,
)
from clonekit.constructions import PPSearchBounds, bounded_pp_search, is_pp_definable
from clonekit.freestruct import (
    Coloring,
    _cayley,
    _restrictions_by_cells,
    clone_members_to_arity,
    free_structure,
    free_structure_over_polymorphisms,
    h1_homomorphism_exists,
    h1_to_projections,
    induced_operations,
    projection_test_structure,
)
from clonekit.homs import core_of, hom_equivalent
from clonekit.maltsev import boolean_order, is_congruence_modular, is_n_permutable_somewhere
from clonekit.search import BudgetExceededError, Csp
from clonekit.structures import serialize_structure

from conftest import LE, MAX2, MIN2


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
LATTICE2 = CloneGenSet.of(2, [MIN2, MAX2])
LATTICE3 = CloneGenSet.of(3, [OperationTable(3, 2, tuple(op(x, y) for x in range(3)
                                                         for y in range(3)))
                              for op in (min, max)])

# Decisions made of several small searches.  ``raises`` marks the
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
    # closures of a generated clone: rounds and blocks, numpy and Python
    "generate_to_arity": (lambda budget: generate_to_arity(LATTICE3, 2, budget), True),
    "free_structure": (lambda budget: free_structure(LATTICE2, LE_S, budget), True),
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
    restrictions = _restrictions_by_cells(LE_S, None)
    # every restriction the lifting reads, searched now, without a budget
    free = free_structure_over_polymorphisms(LE_S, b, None, restrictions)
    return b, restrictions, free


def test_lifting_loop_stops_at_the_deadline(clock):
    b, restrictions, _ = _lifting_inputs()
    budget = SearchBudget(time_limit_ms=500)  # the next read is past it
    with pytest.raises(BudgetExceededError):
        free_structure_over_polymorphisms(LE_S, b, budget, restrictions)
    assert clock.now == 2
    clock.now = 0
    free_structure_over_polymorphisms(LE_S, b, SearchBudget(time_limit_ms=1e12), restrictions)
    # one read per lifted relation with tuples, each under 4096 restrictions
    assert clock.now == 1 + sum(1 for name in b.signature.names() if b.relations[name])


def test_induced_operations_stop_at_the_deadline(clock):
    _, _, free = _lifting_inputs()
    coloring = Coloring(tuple(0 for _ in free.carrier), False)
    members = clone_members_to_arity(LE_S, 3)
    with pytest.raises(BudgetExceededError):
        induced_operations(free, coloring, members, SearchBudget(time_limit_ms=500))
    assert clock.now == 2
    # a long member list reads the clock once every 4096 members
    clock.now = 0
    many = members * (10_000 // len(members) + 1)
    out = induced_operations(free, coloring, many, SearchBudget(time_limit_ms=1e12))
    assert len(out) == len(many)
    assert clock.now == 1 + math.ceil(len(many) / 4096)


@pytest.mark.parametrize("closure", [
    lambda budget: generate_to_arity(LATTICE2, 3, budget),
    lambda budget: generate_to_arity(LATTICE3, 4, budget),
    lambda budget: free_structure(LATTICE2, boolean_order(), budget),
    lambda budget: free_structure(LATTICE3, boolean_order(), budget),
], ids=["generate-d2", "generate-d3", "free-d2", "free-d3"])
def test_closures_stop_at_an_expired_deadline(clock, closure):
    with pytest.raises(BudgetExceededError):
        closure(SearchBudget(time_limit_ms=500))  # the next read is past it
    assert clock.now == 2


@pytest.mark.parametrize("body, k, heads, reads", [
    ("_PythonBody", 13, 1, 2),  # 8,192 results: one read per 4,096
    ("_NumpyBody", 9, 2, 4),    # 262,144 results: one read per block of 2**16
])
def test_block_steps_read_the_deadline_within_a_round(clock, body, k, heads, reads):
    rows = [[int(h > 0 or j > 0) for j in range(2)] for h in range(2**heads)]  # "or"
    body = getattr(clonekit.clones, body)([rows], 2, k)
    tuples = list(itertools.product(range(2), repeat=k))
    pool, first = (body.start(ts)[1] for ts in (tuples, tuples[:1]))
    pools = [pool] * heads + [first]
    body.apply(body.tables[0], pools, body.marks(), SearchBudget(time_limit_ms=1e12))
    assert clock.now == 1 + reads
    clock.now = 0
    with pytest.raises(BudgetExceededError):
        body.apply(body.tables[0], pools, body.marks(), SearchBudget(time_limit_ms=500))
    assert clock.now == 2


def test_cayley_tables_read_the_deadline_once_per_row(clock):
    free = free_structure(LATTICE2, boolean_order())
    tables = [op.table for op in free.carrier]
    _cayley(MIN2, tables, free.carrier_index(), SearchBudget(time_limit_ms=1e12))
    assert clock.now == 1 + len(tables)
    clock.now = 0
    with pytest.raises(BudgetExceededError):
        _cayley(MIN2, tables, free.carrier_index(), SearchBudget(time_limit_ms=500))
    assert clock.now == 2


def test_maltsev_tests_are_inconclusive_when_the_closure_runs_out(clock):
    for test in (is_n_permutable_somewhere, is_congruence_modular):
        clock.now = 0
        res = test(LATTICE3, SearchBudget(time_limit_ms=500))
        assert (res.holds, res.free, res.coloring.outcome) == (None, None, Outcome.BUDGET)
        assert clock.now == 2


@pytest.mark.parametrize("argv, verdict", [
    (["maltsev", "{lattice3}", "--test", "modular"], "inconclusive"),
    (["maltsev", "{lattice3}", "--test", "n-perm"], "inconclusive"),
    (["maltsev", "{lattice2}", "--test", "hm-chain", "--n", "2"], "inconclusive"),
    (["color", "{lattice2}", "--target", "{le}"], "budget"),
], ids=["modular", "n-perm", "hm-chain", "color"])
def test_cli_stops_in_the_closure(clock, tmp_path, argv, verdict):
    # under a limit of one fake second the budget runs out at its second
    # check, which the closure of the carrier makes before any search
    paths = {"le": tmp_path / "le.json"}
    paths["le"].write_text(serialize_structure(RelStructure.make(2, {"le": LE})))
    for name, gen in (("lattice2", LATTICE2), ("lattice3", LATTICE3)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(clone_to_dict(gen)))
    out = tmp_path / "report.json"
    argv = [a.format(**paths) for a in argv] + ["--budget-ms", "1000", "--json", str(out)]
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 4, res.output
    assert res.stdout == "inconclusive: budget exhausted\n"
    report = json.loads(out.read_text())
    assert (report["verdict"], report["timings"]["nodes"]) == (verdict, 0)
    assert clock.now == 3


def _pigeons_behind_a_free_variable() -> Csp:
    """Variable 0 takes 0 or 1 and is free; variables 1..7 take 6 values,
    pairwise distinct.  Arc consistency never sees that 7 pigeons do not
    fit in 6 holes, so every extension search runs long and fails."""
    csp = Csp(8, 6)
    csp.restrict(0, (0, 1))
    csp.add_constraint(itertools.combinations(range(1, 8), 2),
                       [(a, b) for a in range(6) for b in range(6) if a != b])
    return csp


def test_projected_search_stops_in_the_extension_search():
    # the projection on variable 0 makes at most 2 nodes; the rest are the
    # extension search's, which the node limit stops on its 101st node
    csp = _pigeons_behind_a_free_variable()
    with pytest.raises(BudgetExceededError):
        next(csp.solutions(SearchBudget(node_limit=100), project=[0]))
    assert csp.nodes_explored == 101


def test_projected_search_reads_the_deadline_in_the_extension_search(clock):
    # the deadline falls between the reads at node 1, variable 0's first
    # value, and at node 2, made by the extension search below it
    csp = _pigeons_behind_a_free_variable()
    with pytest.raises(BudgetExceededError):
        next(csp.solutions(SearchBudget(time_limit_ms=2500), project=[0]))
    assert (csp.nodes_explored, clock.now) == (2, 4)


def _slow_node_relation():
    """A ternary relation on three elements whose polymorphism search costs
    about 0.065 s per node and makes 9 nodes for its 6 ternary tables."""
    rng = random.Random(3)
    return RelStructure.make(3, {"r": rng.sample(list(itertools.product(range(3), repeat=3)),
                                                 20)})


def test_search_reads_the_deadline_at_every_node(clock):
    a = _slow_node_relation()
    assert len(all_polymorphisms(a, 3, SearchBudget(time_limit_ms=1e12))) == 6
    # budget, root, one read per 256 revisions of the root propagation's
    # ternary constraints, and one read per node
    assert clock.now == 1 + 1 + 26 + 9
    clock.now = 0
    # the deadline falls between the root propagation's last read and node 1's
    with pytest.raises(BudgetExceededError):
        all_polymorphisms(a, 3, SearchBudget(time_limit_ms=27500))
    assert clock.now == 29


def test_root_propagation_reads_the_deadline(clock):
    # the deadline falls between the root propagation's 9th and 10th reads
    csp = _polymorphism_csp(_slow_node_relation(), 3)
    with pytest.raises(BudgetExceededError):
        next(csp.solutions(SearchBudget(time_limit_ms=10500)))
    assert (csp.nodes_explored, clock.now) == (0, 12)


def test_slow_nodes_stop_at_a_real_deadline():
    with pytest.raises(BudgetExceededError):
        all_polymorphisms(_slow_node_relation(), 3, SearchBudget(time_limit_ms=100))
