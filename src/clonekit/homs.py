"""Homomorphism search between finite relational structures.

Search is backtracking with generalized arc consistency at every node,
smallest-domain-first variable order and ascending values, so decision
outcomes and returned witnesses are deterministic.  Exhausted budgets are
reported as a distinct outcome, never as a refutation.  Cores, homomorphic
equivalence and singleton expansion live here as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .search import (
    BudgetExceededError,
    CrossCheckError,
    Csp,
    Outcome,
    SearchBudget,
)
from .structures import RelStructure, Signature


class SignatureMismatchError(ValueError):
    """The two structures do not share a signature."""


@dataclass(frozen=True)
class HomMap:
    """A total map between structure domains, used as a certificate."""

    source_size: int
    target_size: int
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source_size:
            raise ValueError("map must be total on the source domain")
        if any(not 0 <= v < self.target_size for v in self.map):
            raise ValueError("map value out of target range")

    def __getitem__(self, x: int) -> int:
        return self.map[x]


@dataclass(frozen=True)
class HomResult:
    outcome: Outcome
    witness: HomMap | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


@dataclass(frozen=True)
class HomEqResult:
    outcome: Outcome
    forward: HomMap | None = None
    backward: HomMap | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def _require_same_signature(c: RelStructure, a: RelStructure):
    if c.signature != a.signature:
        raise SignatureMismatchError(
            f"signatures differ: {c.signature.rel_names} vs {a.signature.rel_names}"
        )


def is_hom(f: HomMap, c: RelStructure, a: RelStructure) -> bool:
    """True iff f maps every tuple of every relation of c into a."""
    _require_same_signature(c, a)
    if f.source_size != c.size or f.target_size != a.size:
        raise ValueError("map sizes do not match the structures")
    m = f.map
    for name, _ in c.signature.rel_names:
        target = a.tuple_set(name)
        for t in c.relations[name]:
            if tuple(m[v] for v in t) not in target:
                return False
    return True


def hom_csp(size: int, scopes: Mapping[str, Iterable[Sequence[int]]], a: RelStructure,
            pins: Mapping[int, int] | None = None) -> Csp:
    """The CSP of Hom(X, a): X is the instance on ``size`` elements whose
    relation ``name`` holds the tuples ``scopes[name]`` (none when absent),
    and ``pins`` fixes the images of some elements, each element and value
    in range or ValueError.  Every CSP clonekit searches is built here;
    a's relations compile through the memo on ``a``, so all CSPs that
    target ``a`` share their compiled forms."""
    csp = Csp(size, a.size)
    for var, val in (pins or {}).items():
        if not (0 <= var < size and 0 <= val < a.size):
            raise ValueError(f"pin {var} -> {val} out of range for sizes {size} -> {a.size}")
        csp.assign(var, val)
    for name, _ in a.signature.rel_names:
        csp.add_constraint(scopes.get(name, ()), a.relations[name],
                           a._csp_forms.setdefault(name, {}))
    return csp


def find_homomorphism(c: RelStructure, a: RelStructure,
                      budget: SearchBudget | None = None,
                      pins: Mapping[int, int] | None = None) -> HomResult:
    """Search for a homomorphism c -> a.

    FOUND carries a verified witness; REFUTED means a completed exhaustive
    refutation; BUDGET means the limits ran out first.
    """
    _require_same_signature(c, a)
    csp = hom_csp(c.size, c.relations, a, pins)
    outcome, sol = csp.solve(budget=budget)
    witness = None
    if outcome is Outcome.FOUND:
        witness = HomMap(c.size, a.size, sol)
        if not is_hom(witness, c, a):
            raise CrossCheckError("found map is not a homomorphism")
    return HomResult(outcome, witness, csp.nodes_explored)


def all_homomorphisms(c: RelStructure, a: RelStructure,
                      budget: SearchBudget | None = None) -> list[HomMap]:
    """Every homomorphism c -> a in lexicographic order of the map vector."""
    _require_same_signature(c, a)
    csp = hom_csp(c.size, c.relations, a)
    return [HomMap(c.size, a.size, sol)
            for sol in csp.solutions(budget=budget, order="index")]


def hom_equivalent(a: RelStructure, b: RelStructure,
                   budget: SearchBudget | None = None) -> HomEqResult:
    """Decide homomorphic equivalence; FOUND carries both certificates."""
    fwd = find_homomorphism(a, b, budget)
    if fwd.outcome is Outcome.REFUTED:
        return HomEqResult(Outcome.REFUTED, nodes=fwd.nodes)
    bwd = find_homomorphism(b, a, budget)
    nodes = fwd.nodes + bwd.nodes
    if bwd.outcome is Outcome.REFUTED:
        return HomEqResult(Outcome.REFUTED, nodes=nodes)
    if fwd.outcome is Outcome.FOUND and bwd.outcome is Outcome.FOUND:
        return HomEqResult(Outcome.FOUND, fwd.witness, bwd.witness, nodes)
    return HomEqResult(Outcome.BUDGET, nodes=nodes)


# ---------------------------------------------------------------------------
# Cores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreResult:
    core: RelStructure
    retraction: HomMap       # original domain -> core domain
    subset: tuple[int, ...]  # which original elements carry the core


def _idempotent_power(e: Sequence[int]) -> list[int]:
    """Some power of the self-map e that is idempotent (identity on its image)."""
    n = len(e)
    g = list(e)
    for _ in range(n):
        g = [e[x] for x in g]
    image = sorted(set(g))
    # e permutes its eventual image; find the permutation order
    order = 1
    seen = set()
    for x in image:
        if x in seen:
            continue
        y, length = x, 0
        while True:
            y = e[y]
            length += 1
            seen.add(y)
            if y == x:
                break
        order = math.lcm(order, length)
    k = order * -(-n // order)  # smallest multiple of order that is >= n
    out = list(range(n))
    for _ in range(k):
        out = [e[x] for x in out]
    return out


def _shrink_once(b: RelStructure, budget: SearchBudget | None) -> list[int] | None:
    """An idempotent endomorphism of b with a proper image, or None."""
    if b.size == 1:
        return None
    for d in range(b.size):
        subset = [x for x in range(b.size) if x != d]
        sub = b.induced(subset)
        res = find_homomorphism(b, sub, budget)
        if res.outcome is Outcome.BUDGET:
            raise BudgetExceededError("core computation budget exhausted")
        if res.found:
            e = [subset[res.witness.map[x]] for x in range(b.size)]
            return _idempotent_power(e)
    return None


def core_of(a: RelStructure, budget: SearchBudget | None = None) -> CoreResult:
    """The core of ``a``: a minimum-size retract, with its retraction.

    Among minimum-size retracts the lexicographically least domain subset is
    returned, which makes the result deterministic.  The returned structure
    is verified to be a core by refuting every endomorphism into a proper
    induced substructure.
    """
    current = a
    subset = list(range(a.size))       # current carrier, as original elements
    retraction = list(range(a.size))   # original element -> index in subset
    while True:
        e = _shrink_once(current, budget)
        if e is None:
            break
        image = sorted(set(e))
        pos = {v: i for i, v in enumerate(image)}
        retraction = [pos[e[retraction[x]]] for x in range(a.size)]
        subset = [subset[v] for v in image]
        current = current.induced(image)
    m = current.size
    if m < a.size:
        # tie-break: the lexicographically least m-subset that is a retract
        for cand in itertools.combinations(range(a.size), m):
            if list(cand) == subset:
                break  # already the least one reachable
            sub = a.induced(cand)
            pins = {v: i for i, v in enumerate(cand)}
            res = find_homomorphism(a, sub, budget, pins=pins)
            if res.outcome is Outcome.BUDGET:
                raise BudgetExceededError("core computation budget exhausted")
            if res.found:
                subset = list(cand)
                current = sub
                retraction = list(res.witness.map)
                break
    # exhaustive verification: the result has no non-injective endomorphism
    if _shrink_once(current, budget) is not None:
        raise CrossCheckError("internal error: computed retract is not a core")
    hom = HomMap(a.size, m, tuple(retraction))
    if not is_hom(hom, a, current):
        raise CrossCheckError("retraction is not a homomorphism onto the core")
    return CoreResult(current, hom, tuple(subset))


def add_singletons(a: RelStructure) -> RelStructure:
    """Expand ``a`` by the unary relation {v} for every domain element v.

    Relations that already exist with the same single tuple are not added
    again, so the construction is idempotent up to deduplication.
    """
    existing = {a.tuple_set(n): n for n, k in a.signature.rel_names if k == 1}
    taken = set(a.signature.names())
    pairs = list(a.signature.rel_names)
    rels = dict(a.relations)
    for v in range(a.size):
        single = frozenset({(v,)})
        if single in existing:
            continue
        name = f"sing{v}"
        while name in taken:
            name += "_"
        taken.add(name)
        pairs.append((name, 1))
        rels[name] = [(v,)]
    return RelStructure(a.size, Signature.of(pairs), rels)


def find_isomorphism(a: RelStructure, b: RelStructure) -> HomMap | None:
    """Brute-force isomorphism between small same-signature structures."""
    if a.signature != b.signature or a.size != b.size:
        return None
    for name, _ in a.signature.rel_names:
        if len(a.relations[name]) != len(b.relations[name]):
            return None
    for perm in itertools.permutations(range(a.size)):
        f = HomMap(a.size, b.size, perm)
        if not is_hom(f, a, b):
            continue
        inv = [0] * a.size
        for x, y in enumerate(perm):
            inv[y] = x
        if is_hom(HomMap(b.size, a.size, tuple(inv)), b, a):
            return f
    return None
