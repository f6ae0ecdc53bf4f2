"""Congruence n-permutability and modularity via strong colorings.

A clone is congruence n-permutable for some n exactly when it is NOT
strongly colorable by the two-element order, and congruence modular
exactly when it is not strongly colorable by the four-element structure
whose relations are the equivalence relations with blocks 12|34, 13|24
and 12|3|4 (elements stored 0-based; reports print 1-based labels).
Positive permutability answers additionally try to attach a
Hagemann-Mitschke chain found by direct search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .clones import (
    CloneGenSet,
    FlatTerm,
    H1IdentitySystem,
    OperationTable,
    find_operation_satisfying,
    generate_to_arity,
    minor_cells,
    satisfies_system,
)
from .freestruct import ColoringResult, FreeStructure, find_coloring, free_structure
from .search import BudgetExceededError, CrossCheckError, Outcome, SearchBudget
from .structures import RelStructure

DAY_LABELS = ("1", "2", "3", "4")


def _equivalence(blocks) -> list[tuple[int, int]]:
    out = []
    for blk in blocks:
        out.extend((x, y) for x in blk for y in blk)
    return out


def day_structure() -> RelStructure:
    """The four-element structure with equivalence relations 12|34, 13|24,
    12|3|4 (0-based storage)."""
    return RelStructure.make(4, {
        "alpha": _equivalence([(0, 1), (2, 3)]),
        "beta": _equivalence([(0, 2), (1, 3)]),
        "gamma": _equivalence([(0, 1), (2,), (3,)]),
    })


def boolean_order() -> RelStructure:
    return RelStructure.make(2, {"le": [(0, 0), (0, 1), (1, 1)]})


@dataclass(frozen=True)
class HMChain:
    """Ternary operations p_1..p_{n-1} witnessing n-permutability."""

    n: int
    ops: tuple[OperationTable, ...]

    def __post_init__(self):
        if self.n < 2 or len(self.ops) != self.n - 1:
            raise ValueError("chain for n needs exactly n-1 ternary operations")
        if any(op.arity != 3 for op in self.ops):
            raise ValueError("chain operations must be ternary")


def verify_hm_chain(chain: HMChain) -> bool:
    """Check p1(x,y,y)=x, p_{n-1}(x,x,y)=y and the links; a chain whose
    operations have different domain sizes fails."""
    assignment = {f"p{i}": op for i, op in enumerate(chain.ops, 1)}
    return satisfies_system(assignment, hagemann_mitschke_system(chain.n))


def hagemann_mitschke_system(n: int) -> H1IdentitySystem:
    if n < 2:
        raise ValueError("n-permutability needs n >= 2")
    names = [f"p{i}" for i in range(1, n)]
    x, y = 0, 1
    eqs = [
        (FlatTerm(names[0], (x, y, y)), FlatTerm(None, (x,))),
        (FlatTerm(names[-1], (x, x, y)), FlatTerm(None, (y,))),
    ]
    for i in range(len(names) - 1):
        eqs.append((FlatTerm(names[i], (x, x, y)), FlatTerm(names[i + 1], (x, y, y))))
    return H1IdentitySystem(tuple((nm, 3) for nm in names), tuple(eqs))


@dataclass(frozen=True)
class HMSearchResult:
    outcome: Outcome
    chain: HMChain | None = None

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def find_hagemann_mitschke(target, n: int,
                           budget: SearchBudget | None = None) -> HMSearchResult:
    """Search for a Hagemann-Mitschke chain of length exactly n-1.

    For a relational structure the chain is sought among polymorphisms via
    the identity engine; for a generated clone the ternary members are
    materialized and chained through their binary faces p(x,x,y), p(x,y,y).
    A budget that runs out gives BUDGET.
    """
    if isinstance(target, RelStructure):
        res = find_operation_satisfying(target, hagemann_mitschke_system(n), budget)
        if not res.found:
            return HMSearchResult(res.outcome)
        chain = HMChain(n, tuple(res.assignment[f"p{i}"] for i in range(1, n)))
        if not verify_hm_chain(chain):
            raise CrossCheckError("found chain fails the Hagemann-Mitschke identities")
        return HMSearchResult(Outcome.FOUND, chain)
    if not isinstance(target, CloneGenSet):
        raise TypeError("expected a RelStructure or CloneGenSet")
    gen = target
    try:
        members = generate_to_arity(gen, 3, budget)
    except BudgetExceededError:
        return HMSearchResult(Outcome.BUDGET)
    d = gen.domain_size
    # p(x,y,y) and p(x,x,y) as binary tables; a chain is a path from the
    # first projection to the second along these faces
    edges: dict[tuple[int, ...], list[tuple[tuple[int, ...], OperationTable]]] = {}
    right_cells, left_cells = minor_cells(d, (0, 1, 1), 2), minor_cells(d, (0, 0, 1), 2)
    for op in members:
        look = op.table.__getitem__
        edges.setdefault(tuple(map(look, right_cells)), []).append(
            (tuple(map(look, left_cells)), op))
    start, goal = minor_cells(d, (0,), 2), minor_cells(d, (1,), 2)

    def dfs(node, steps, path, dead):
        if steps == 0:
            return list(path) if node == goal else None
        if (node, steps) in dead:
            return None
        for nxt, op in edges.get(node, ()):
            path.append(op)
            got = dfs(nxt, steps - 1, path, dead)
            if got is not None:
                return got
            path.pop()
        dead.add((node, steps))
        return None

    ops = dfs(start, n - 1, [], set())
    if ops is None:
        return HMSearchResult(Outcome.REFUTED)
    chain = HMChain(n, tuple(ops))
    if not verify_hm_chain(chain):
        raise CrossCheckError("found chain fails the Hagemann-Mitschke identities")
    return HMSearchResult(Outcome.FOUND, chain)


@dataclass(frozen=True)
class MaltsevConditionResult:
    """Outcome of a strong-coloring based Maltsev condition test.

    ``holds`` is the condition itself (n-permutability for some n, or
    modularity): true exactly when the strong coloring search was
    exhaustively refuted.  A found coloring certifies failure; for
    n-permutability a Hagemann-Mitschke chain is attached as an extra
    certificate when one exists at small n.
    """

    condition: str
    holds: bool | None                # None when the budget ran out
    free: FreeStructure | None        # None when it ran out building it
    coloring: ColoringResult
    chain: HMChain | None = None


def _strong_coloring_test(condition: str, gen: CloneGenSet, b: RelStructure,
                          budget: SearchBudget | None) -> MaltsevConditionResult:
    """The condition holds iff the free structure of ``gen`` over b has no
    strong coloring; undecided, with no free structure, if the budget runs
    out while that is built."""
    try:
        free = free_structure(gen, b, budget)
    except BudgetExceededError:
        return MaltsevConditionResult(condition, None, None, ColoringResult(Outcome.BUDGET))
    col = find_coloring(free, strong=True, budget=budget)
    holds = None if col.outcome is Outcome.BUDGET else col.outcome is Outcome.REFUTED
    return MaltsevConditionResult(condition, holds, free, col)


def is_n_permutable_somewhere(gen: CloneGenSet,
                              budget: SearchBudget | None = None) -> MaltsevConditionResult:
    """Is the generated clone congruence n-permutable for some n?

    Decided as NOT(strongly colorable by the two-element order); positive
    answers try to attach a chain for n = 2..4 (the chain may legitimately
    be absent at these small n, or when the budget runs out in its search).
    """
    res = _strong_coloring_test("n-permutable", gen, boolean_order(), budget)
    if res.holds:
        for n in range(2, 5):
            found = find_hagemann_mitschke(gen, n, budget)
            if found.outcome is not Outcome.REFUTED:
                return replace(res, chain=found.chain)
    return res


def is_congruence_modular(gen: CloneGenSet,
                          budget: SearchBudget | None = None) -> MaltsevConditionResult:
    """Is the generated clone congruence modular?

    Decided as NOT(strongly colorable by the Day structure).
    """
    return _strong_coloring_test("congruence-modular", gen, day_structure(), budget)
