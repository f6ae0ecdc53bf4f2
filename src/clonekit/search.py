"""Shared backtracking kernel: finite CSPs with generalized arc consistency.

Every decision procedure in the package (homomorphism search, polymorphism
enumeration, identity-constrained table search, coloring search) reduces to
the same problem shape: variables with bitmask domains and positive table
constraints.  One call adds one relation on all of its scopes, and the
relation is compiled once per equality pattern of those scopes; a caller
that adds the same relation to many CSPs can pass one memo of compiled forms
to all of them.  Binary constraints are revised bitwise (Lecoutre and Vion,
*Enforcing arc consistency using bitwise operations*, 2008): a union table,
indexed by a domain mask in 8-bit chunks, gives the supports of the up to 8
values of one chunk at once.  A revision reads only the chunks that hold
domain values, and each table entry is computed the first time it is read.
Wider scopes are revised by scanning their allowed tuples.  Search is
depth-first with propagation at every node, ascending value order, and
either smallest-domain-first or static index variable order (the latter
makes solution enumeration lexicographic).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import and_, itemgetter
from typing import Iterable, Iterator, Sequence


class Outcome(Enum):
    FOUND = "found"
    REFUTED = "refuted"
    BUDGET = "budget"


class BudgetExceededError(RuntimeError):
    """Search stopped by node or time limit; not a refutation."""


class CrossCheckError(RuntimeError):
    """A certificate failed its re-check or two oracles disagreed: an internal bug."""


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for one search call.

    Exhaustion is reported as Outcome.BUDGET, never conflated with a
    completed refutation.
    """

    node_limit: int | None = None
    time_limit_ms: float | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit_ms is not None and self.time_limit_ms <= 0:
            raise ValueError("time_limit_ms must be positive")


DEFAULT_BUDGET = SearchBudget()


class Csp:
    """A CSP over variables 0..n-1 with bitmask domains.

    Constraints are added via :meth:`add_constraint`, one call per
    relation: the variable scopes it applies to and its allowed value
    tuples.  Repeated variables in a scope are collapsed by restricting the
    allowed tuples to the matching diagonal.  Two constraints on the same
    variable pair act as one, on the intersection of their relations.
    Binary constraints keep two support lists (the supports of each value
    of one end on the other); the first propagation sets up an empty union
    table for each distinct final list, and revisions fill in the entries
    they read.
    """

    def __init__(self, nvars: int, domain_size: int):
        if nvars < 0 or domain_size < 1:
            raise ValueError("need nvars >= 0 and domain_size >= 1")
        self.nvars = nvars
        self.domain_size = domain_size
        self.dom = [(1 << domain_size) - 1] * nvars
        # binary constraints: two support lists per unordered var pair
        self._bin_pairs: dict[tuple[int, int], int] = {}
        self._bin_ends: list[tuple[int, int]] = []
        self._bin_sup: list[tuple[list[int], list[int]]] = []
        # union tables of _bin_sup, set up by the first propagation
        self._bin_tab: list[tuple[list[list], list[list]]] | None = None
        self._var_bins: list[list[int]] = [[] for _ in range(nvars)]
        # wider constraints
        self._nary: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
        self._var_narys: list[list[int]] = [[] for _ in range(nvars)]
        self._failed = False
        self.nodes_explored = 0

    def restrict(self, var: int, values: Iterable[int]):
        mask = 0
        for v in values:
            mask |= 1 << v
        self.dom[var] &= mask
        if self.dom[var] == 0:
            self._failed = True

    def assign(self, var: int, value: int):
        self.restrict(var, (value,))

    def add_constraint(self, scopes: Iterable[Sequence[int]],
                       allowed: Sequence[Sequence[int]],
                       compiled: dict[tuple[int, ...], tuple] | None = None):
        """Require every scope in ``scopes`` to take a tuple of ``allowed``.

        ``allowed`` is one relation, duplicate-free.  It is compiled once per
        equality pattern of the scopes, and the compiled form is shared by
        every scope with that pattern.  ``compiled`` is the memo of those
        forms by pattern; a caller may keep one per relation and pass it to
        every CSP of the same domain size that takes the relation, since no
        CSP changes a compiled form.  Empty scopes are ignored.
        """
        if compiled is None:
            compiled = {}
        for scope in scopes:
            pattern = tuple(map(scope.index, scope))
            if pattern not in compiled:
                compiled[pattern] = self._compile(pattern, allowed)
            form = compiled[pattern]
            kept = tuple(dict.fromkeys(scope))
            if len(kept) == 1:
                self.restrict(kept[0], (t[0] for t in form))
            elif len(kept) == 2:
                self._add_binary(*kept, *form)
            elif kept:
                idx = len(self._nary)
                self._nary.append((kept, form))
                for v in kept:
                    self._var_narys[v].append(idx)

    def _compile(self, pattern: tuple[int, ...], allowed) -> tuple:
        """The tuples of ``allowed`` on the diagonal that ``pattern`` selects
        (position i repeats position ``pattern[i]``), cut to the first
        position of each variable: two value-indexed support lists when two
        variables are left, the sorted tuples otherwise."""
        kept = [i for i, p in enumerate(pattern) if p == i]
        if len(kept) < len(pattern):
            diagonal = itemgetter(*pattern)
            allowed = [tuple(t[i] for i in kept) for t in allowed
                       if diagonal(t) == tuple(t)]
        if len(kept) != 2:
            return tuple(sorted(map(tuple, allowed)))
        sup_xy = [0] * self.domain_size
        sup_yx = [0] * self.domain_size
        for a, b in allowed:
            sup_xy[a] |= 1 << b
            sup_yx[b] |= 1 << a
        return sup_xy, sup_yx

    def _add_binary(self, x: int, y: int, sup_xy: list[int], sup_yx: list[int]):
        """Attach support lists to the pair (x, y).  The lists may be shared
        with other pairs and other CSPs, so a second constraint on one pair
        replaces them with their intersection instead of narrowing them in
        place.  Union tables stand for the final lists, so adding a
        constraint drops any set up earlier."""
        self._bin_tab = None
        if x > y:
            x, y, sup_xy, sup_yx = y, x, sup_yx, sup_xy
        pair = (x, y)
        idx = self._bin_pairs.get(pair)
        if idx is not None:
            old_xy, old_yx = self._bin_sup[idx]
            self._bin_sup[idx] = (list(map(and_, old_xy, sup_xy)),
                                  list(map(and_, old_yx, sup_yx)))
            return
        idx = len(self._bin_sup)
        self._bin_pairs[pair] = idx
        self._bin_ends.append(pair)
        self._bin_sup.append((sup_xy, sup_yx))
        self._var_bins[x].append(idx)
        self._var_bins[y].append(idx)

    # -- propagation ---------------------------------------------------------

    def _union_tables(self) -> list[tuple[list[list], list[list]]]:
        """For each binary constraint, the union tables of its two support
        lists.  The table of ``sup`` is cut into chunks of 8 values: entry m
        of chunk c is the union of ``sup[8c + i]`` over the bits i of m, so
        the supports of a domain mask are the union of one entry per chunk.
        Entries start as None and are filled by the first revision that
        reads them.  Equal support lists share one table."""
        memo: dict[tuple[int, ...], list[list]] = {}

        def table(sup: list[int]) -> list[list]:
            key = tuple(sup)
            tab = memo.get(key)
            if tab is None:
                tab = memo[key] = [[None] * (1 << min(8, len(sup) - c))
                                   for c in range(0, len(sup), 8)]
            return tab

        return [(table(sup_xy), table(sup_yx)) for sup_xy, sup_yx in self._bin_sup]

    def _propagate(self, dom: list[int], dirty_vars) -> bool:
        """Enforce GAC starting from the given dirty variables; False on wipeout."""
        ends = self._bin_ends
        sups = self._bin_sup
        tabs = self._bin_tab
        if tabs is None:
            tabs = self._bin_tab = self._union_tables()
        nary = self._nary
        queue = deque(dirty_vars)
        queued = set(queue)
        while queue:
            var = queue.popleft()
            queued.discard(var)
            for bi in self._var_bins[var]:
                x, y = ends[bi]
                tab_xy, tab_yx = tabs[bi]
                dx = dom[x]
                m = 0
                # the nonzero chunks of the domain, highest first
                while dx > 255:
                    shift = (dx.bit_length() - 1) & -8
                    bits = dx >> shift
                    chunk = tab_xy[shift >> 3]
                    part = chunk[bits]
                    if part is None:
                        part = chunk[bits] = _chunk_union(sups[bi][0], shift, bits)
                    m |= part
                    dx ^= bits << shift
                if dx:
                    chunk = tab_xy[0]
                    part = chunk[dx]
                    if part is None:
                        part = chunk[dx] = _chunk_union(sups[bi][0], 0, dx)
                    m |= part
                new_y = dom[y] & m
                if new_y != dom[y]:
                    if not new_y:
                        return False
                    dom[y] = new_y
                    if y not in queued:
                        queue.append(y)
                        queued.add(y)
                dy = dom[y]
                m = 0
                while dy > 255:
                    shift = (dy.bit_length() - 1) & -8
                    bits = dy >> shift
                    chunk = tab_yx[shift >> 3]
                    part = chunk[bits]
                    if part is None:
                        part = chunk[bits] = _chunk_union(sups[bi][1], shift, bits)
                    m |= part
                    dy ^= bits << shift
                if dy:
                    chunk = tab_yx[0]
                    part = chunk[dy]
                    if part is None:
                        part = chunk[dy] = _chunk_union(sups[bi][1], 0, dy)
                    m |= part
                new_x = dom[x] & m
                if new_x != dom[x]:
                    if not new_x:
                        return False
                    dom[x] = new_x
                    if x not in queued:
                        queue.append(x)
                        queued.add(x)
            for ni in self._var_narys[var]:
                scope, allowed = nary[ni]
                k = len(scope)
                masks = [0] * k
                doms = [dom[v] for v in scope]
                for t in allowed:
                    ok = True
                    for i in range(k):
                        if not doms[i] >> t[i] & 1:
                            ok = False
                            break
                    if ok:
                        for i in range(k):
                            masks[i] |= 1 << t[i]
                for i in range(k):
                    v = scope[i]
                    new = dom[v] & masks[i]
                    if new != dom[v]:
                        if not new:
                            return False
                        dom[v] = new
                        if v not in queued:
                            queue.append(v)
                            queued.add(v)
        return True

    # -- search ----------------------------------------------------------------

    def solve(self, budget: SearchBudget | None = None) -> tuple[Outcome, tuple[int, ...] | None]:
        """First solution in smallest-domain-first order, or refutation.
        Node count in ``self.nodes_explored``."""
        it = self.solutions(budget=budget)
        try:
            sol = next(it)
        except StopIteration:
            return Outcome.REFUTED, None
        except BudgetExceededError:
            return Outcome.BUDGET, None
        it.close()
        return Outcome.FOUND, sol

    def solutions(self, budget: SearchBudget | None = None,
                  order: str = "mindom") -> Iterator[tuple[int, ...]]:
        """Yield all solutions; lexicographic when order='index'.

        Raises BudgetExceededError when limits run out mid-enumeration.
        """
        budget = budget or DEFAULT_BUDGET
        self.nodes_explored = 0
        if self._failed:
            return
        dom = list(self.dom)
        if not self._propagate(dom, range(self.nvars)):
            return
        node_limit = budget.node_limit
        deadline = None
        if budget.time_limit_ms is not None:
            deadline = time.monotonic() + budget.time_limit_ms / 1000.0
        nodes = 0
        static = order == "index"
        nvars = self.nvars

        def pick_var(d: list[int]) -> int:
            if static:
                for v in range(nvars):
                    m = d[v]
                    if m & (m - 1):
                        return v
                return -1
            best = -1
            best_count = 1 << 62
            for v in range(nvars):
                m = d[v]
                if m & (m - 1):
                    c = m.bit_count()
                    if c < best_count:
                        best, best_count = v, c
                        if c == 2:
                            break
            return best

        # Explicit DFS stack: (domain snapshot, branch var, untried value bits).
        stack: list[tuple[list[int], int, int]] = []
        cur: list[int] | None = dom
        del dom
        while True:
            if cur is not None:
                var = pick_var(cur)
                if var < 0:
                    self.nodes_explored = nodes
                    yield tuple(m.bit_length() - 1 for m in cur)
                else:
                    stack.append((cur, var, cur[var]))
                cur = None
            if not stack:
                self.nodes_explored = nodes
                return
            base, var, pending = stack[-1]
            if not pending:
                stack.pop()
                continue
            low = pending & -pending
            stack[-1] = (base, var, pending ^ low)
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                self.nodes_explored = nodes
                raise BudgetExceededError("node limit exceeded")
            if nodes % 64 == 0:
                if deadline is not None and time.monotonic() > deadline:
                    self.nodes_explored = nodes
                    raise BudgetExceededError("time limit exceeded")
            child = list(base)
            child[var] = low
            if self._propagate(child, (var,)):
                cur = child


def _chunk_union(sup: list[int], base: int, bits: int) -> int:
    """The union of ``sup[base + i]`` over the bits i of ``bits``."""
    u = 0
    while bits:
        low = bits & -bits
        u |= sup[base + low.bit_length() - 1]
        bits ^= low
    return u
