"""Shared backtracking kernel: finite CSPs with generalized arc consistency.

Every decision procedure in the package (homomorphism search, polymorphism
enumeration, identity-constrained table search, coloring search, pp formula
evaluation) reduces to the same problem shape: variables with bitmask domains and positive table
constraints.  One call adds one relation on all of its scopes, and the
relation is compiled once per equality pattern of those scopes; a caller
that adds the same relation to many CSPs can pass one memo of compiled forms
to all of them.  A CSP can also be conjoined with another on the same
variables, which equals replaying the other's constraints on a copy of it,
so a caller that extends one CSP in several ways compiles each extension
once.  A scope of two distinct variables needs no equality pattern and goes
straight to its pair, and a second constraint on a pair whose support lists
equal the first's by value changes nothing.  Binary constraints are revised
bitwise (Lecoutre and Vion, *Enforcing arc consistency using bitwise
operations*, 2008): a union table, indexed by a domain mask in 8-bit chunks,
gives the supports of the up to 8 values of one chunk at once.  A revision
reads only the chunks that hold domain values, and each table entry is
computed the first time it is read; a singleton reads its one support list
entry instead.  A variable's binary constraints are grouped by the support
list that maps its values to the other end, so when its domain changes one
support mask per group narrows every far end of the group, and each far end
is tested against the mask before anything is written.  Wider scopes are
revised by scanning their allowed tuples, each only once the binary
constraints have reached their fixpoint.  Search is depth-first with
propagation at every node and ascending value order.  It enumerates every
solution in smallest-domain-first variable order, or only the distinct
assignments of chosen variables that extend to a solution: it branches on
those in the given order and, below each full assignment of them, searches
smallest-domain-first for one extension.  Projected on every variable this is
static index order, whose enumeration is lexicographic.  Every CSP the
package searches is Hom(X, A) for an instance X and a target A, and is
built by ``homs.hom_csp``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
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
    """Resource limits for one decision.

    The time limit is one ``deadline``, fixed when the budget is created and
    read through :meth:`check` by every long loop given the budget, and by
    every search at its root and at each of its nodes; the node limit bounds
    each search on its own.  Exhaustion is reported as Outcome.BUDGET, never
    conflated with a completed refutation.
    """

    node_limit: int | None = None
    time_limit_ms: float | None = None
    deadline: float | None = field(init=False, compare=False, default=None)

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.time_limit_ms is not None:
            if not (math.isfinite(self.time_limit_ms) and self.time_limit_ms > 0):
                raise ValueError("time_limit_ms must be positive and finite")
            object.__setattr__(self, "deadline", time.monotonic() + self.time_limit_ms / 1000)

    def check(self):
        """Raise BudgetExceededError once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time limit exceeded")


DEFAULT_BUDGET = SearchBudget()


class Csp:
    """A CSP over variables 0..n-1 with bitmask domains.

    Constraints are added via :meth:`add_constraint`, one call per
    relation: the variable scopes it applies to and its allowed value
    tuples; :meth:`conjoin` adds those of another CSP to a copy.  Repeated
    variables in a scope are collapsed by restricting the allowed tuples to
    the matching diagonal, and a scope whose collapsed relation allows every
    tuple is dropped; a scope of two distinct variables needs no pattern and
    goes straight to its pair.  Two constraints on the same variable pair act
    as one, on the intersection of their relations, and a second one equal
    to the first is a no-op.  Binary constraints keep two support lists (the
    supports of each value of one end on the other).  The first propagation
    groups each variable's binary constraints by the support list that maps
    its values to the other end, with one empty union table per distinct
    list.  When a variable's domain changes, each of its groups computes one
    support mask and ANDs it into the far ends of the group that it narrows:
    a mask that reaches every value is skipped, and each far end is tested
    before any write.  Its own end is revised from the far side when that
    end changes.  Wider constraints wait in a pending set and are revised one
    at a time, each only once the binary constraints have reached their
    fixpoint, an order in the spirit of Wallace and Freuder (*Ordering
    heuristics for arc consistency algorithms*, 1992).  The fixpoint is the
    same GAC fixpoint in any order.
    Search can project on chosen variables: it branches on them alone and
    asks the rest only for one extension of each of their assignments.
    """

    def __init__(self, nvars: int, domain_size: int):
        if nvars < 0 or domain_size < 1:
            raise ValueError("need nvars >= 0 and domain_size >= 1")
        self.nvars = nvars
        self.domain_size = domain_size
        self.dom = [(1 << domain_size) - 1] * nvars
        # binary constraints: two support lists per ordered var pair x < y
        self._bin: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        # per variable, its binary groups, set up by the first propagation
        self._groups: list[list[tuple[list[list], list[int], list[int]]]] | None = None
        # wider constraints
        self._nary: list[tuple[Sequence[int], tuple[tuple[int, ...], ...]]] = []
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
                       compiled: dict[tuple[int, ...], tuple | None] | None = None):
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
        self._groups = None  # groups stand for the final support lists
        plain = ()
        fwd = rev = False  # the form of plain pairs and its reverse, once looked up
        for scope in scopes:
            if len(scope) == 2 and scope[0] != scope[1]:
                if fwd is False:
                    fwd = compiled.get((0, 1), False)
                    if fwd is False:
                        fwd = compiled[0, 1] = self._compile((0, 1), allowed)
                    rev = fwd and fwd[::-1]
                if fwd is None:
                    continue
                x, y = scope
                key, sups = ((x, y), fwd) if x < y else ((y, x), rev)
                old = self._bin.get(key)
                if old is None:
                    self._bin[key] = sups
                elif old != sups:
                    self._add_binary(x, y, *fwd)
                continue
            if len(set(scope)) == len(scope):
                # no repeated variable: pattern 0..k-1, every variable kept
                if len(plain) != len(scope):
                    plain = tuple(range(len(scope)))
                pattern, kept = plain, scope
            else:
                pattern = tuple(map(scope.index, scope))
                kept = tuple(dict.fromkeys(scope))
            if pattern not in compiled:
                compiled[pattern] = self._compile(pattern, allowed)
            form = compiled[pattern]
            if form is None:
                continue
            if len(kept) == 1:
                self.restrict(kept[0], (t[0] for t in form))
            elif len(kept) == 2:
                self._add_binary(*kept, *form)
            elif kept:
                idx = len(self._nary)
                self._nary.append((kept, form))
                for v in kept:
                    self._var_narys[v].append(idx)

    def _compile(self, pattern: tuple[int, ...], allowed) -> tuple | None:
        """The tuples of ``allowed`` on the diagonal that ``pattern`` selects
        (position i repeats position ``pattern[i]``), cut to the first
        position of each variable: two value-indexed support lists when two
        variables are left, the sorted tuples otherwise.  None when they are
        every tuple, since such a constraint never narrows a domain."""
        kept = [i for i, p in enumerate(pattern) if p == i]
        if len(kept) < len(pattern):
            diagonal = itemgetter(*pattern)
            allowed = [tuple(t[i] for i in kept) for t in allowed
                       if diagonal(t) == tuple(t)]
        d = self.domain_size
        if len(kept) != 2:
            form = tuple(sorted(set(map(tuple, allowed))))
            return None if len(form) == d ** len(kept) else form
        sup_xy = [0] * d
        sup_yx = [0] * d
        for a, b in allowed:
            sup_xy[a] |= 1 << b
            sup_yx[b] |= 1 << a
        full = (1 << d) - 1
        return None if sup_xy.count(full) == d else (sup_xy, sup_yx)

    def _add_binary(self, x: int, y: int, sup_xy: list[int], sup_yx: list[int]):
        """Attach support lists to the pair (x, y).  The lists may be shared
        with other pairs and other CSPs, so a second constraint on one pair
        replaces them with their intersection instead of narrowing them in
        place, and leaves them as they are when they are equal by value."""
        if x > y:
            x, y, sup_xy, sup_yx = y, x, sup_yx, sup_xy
        old = self._bin.get((x, y))
        if old is None:
            self._bin[x, y] = (sup_xy, sup_yx)
        elif old != (sup_xy, sup_yx):
            self._bin[x, y] = (list(map(and_, old[0], sup_xy)), list(map(and_, old[1], sup_yx)))

    def conjoin(self, other: Csp) -> Csp:
        """A new CSP with the constraints of ``other`` added after this one's,
        equal to replaying on a copy of this CSP the calls that built
        ``other``: domains are ANDed, a variable pair constrained in both
        keeps the intersection of the two support lists, as in
        :meth:`_add_binary`, and the wider constraints of ``other`` follow
        this one's in order.  Neither CSP changes; the new one shares with
        them only support lists and compiled tuples, which no CSP changes."""
        if (other.nvars, other.domain_size) != (self.nvars, self.domain_size):
            raise ValueError("conjoined CSPs need equal variable counts and domain sizes")
        csp = Csp(self.nvars, self.domain_size)
        csp.dom = list(map(and_, self.dom, other.dom))
        csp._failed = self._failed or other._failed or not all(csp.dom)
        csp._bin = dict(self._bin)
        for (x, y), sups in other._bin.items():
            csp._add_binary(x, y, *sups)
        offset = len(self._nary)
        csp._nary = self._nary + other._nary
        csp._var_narys = [mine + [offset + i for i in theirs]
                          for mine, theirs in zip(self._var_narys, other._var_narys)]
        return csp

    # -- propagation ---------------------------------------------------------

    def _group_binaries(self) -> list[list[tuple[list[list], list[int], list[int]]]]:
        """For each variable, its binary constraints grouped by the support
        list that maps its values to the other end, as (union table, support
        list, other ends) triples.  The union table of ``sup`` is cut into
        chunks of 8 values: entry m of chunk c is the union of ``sup[8c + i]``
        over the bits i of m, so the supports of a domain mask are the union
        of one entry per chunk.  Entries start as None and are filled by the
        first revision that reads them.  Groups and tables are keyed by the
        value of the list, so equal lists share them, also lists made by
        intersecting two constraints on one pair."""
        tables: dict[tuple[int, ...], list[list]] = {}
        groups: list[dict] = [{} for _ in range(self.nvars)]
        for (x, y), (sup_xy, sup_yx) in self._bin.items():
            for v, w, sup in ((x, y, sup_xy), (y, x, sup_yx)):
                key = tuple(sup)
                group = groups[v].get(key)
                if group is None:
                    tab = tables.get(key)
                    if tab is None:
                        tab = tables[key] = [[None] * (1 << min(8, len(sup) - c))
                                             for c in range(0, len(sup), 8)]
                    group = groups[v][key] = (tab, sup, [])
                group[2].append(w)
        return [list(g.values()) for g in groups]

    def _propagate(self, dom: list[int], dirty_vars, deadline: float | None = None) -> bool:
        """Enforce GAC starting from the given dirty variables; False on wipeout.
        Reads ``deadline``, if given, every 256 revisions of wider constraints
        and raises BudgetExceededError once it has passed."""
        groups = self._groups
        if groups is None:
            groups = self._groups = self._group_binaries()
        nary = self._nary
        var_narys = self._var_narys
        queue = deque(dirty_vars)
        queued = [False] * self.nvars
        for v in queue:
            queued[v] = True
        pending: set[int] = set()
        full = (1 << self.domain_size) - 1
        revisions = 0
        while True:
            while queue:
                var = queue.popleft()
                queued[var] = False
                dv = dom[var]
                single = -1 if dv & (dv - 1) else dv.bit_length() - 1
                for tab, sup, others in groups[var]:
                    # a singleton reads one support list entry, not the table
                    m = sup[single] if single >= 0 else 0
                    dv = 0 if single >= 0 else dom[var]
                    # the nonzero chunks of the domain, highest first
                    while dv > 255:
                        shift = (dv.bit_length() - 1) & -8
                        bits = dv >> shift
                        chunk = tab[shift >> 3]
                        part = chunk[bits]
                        if part is None:
                            part = chunk[bits] = _chunk_union(sup, shift, bits)
                        m |= part
                        dv ^= bits << shift
                    if dv:
                        chunk = tab[0]
                        part = chunk[dv]
                        if part is None:
                            part = chunk[dv] = _chunk_union(sup, 0, dv)
                        m |= part
                    # the values no support reaches, if any: each far end is
                    # tested for them before a write, since most hold none
                    cut = full ^ m
                    if not cut:
                        continue
                    for y in others:
                        if dom[y] & cut:
                            new = dom[y] & m
                            if not new:
                                return False
                            dom[y] = new
                            if not queued[y]:
                                queue.append(y)
                                queued[y] = True
                if nary:
                    pending.update(var_narys[var])
            if not pending:
                return True
            revisions += 1
            if deadline is not None and not revisions & 255 and time.monotonic() > deadline:
                raise BudgetExceededError("time limit exceeded")
            scope, allowed = nary[pending.pop()]
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
                    if not queued[v]:
                        queue.append(v)
                        queued[v] = True

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

    def solutions(self, budget: SearchBudget | None = None, order: str = "mindom",
                  project: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
        """Yield all solutions; lexicographic when order='index'.

        With ``project``, yield instead each distinct assignment of those
        variables that extends to a solution, once, as a tuple in the order
        given, lexicographically; ``order`` is then not read.  The search
        branches on the variables of ``project`` in that order, values
        ascending, and below each full assignment of them runs one
        smallest-domain-first search for an extension, stopped at the first
        one.  order='index' is the projection on every variable.  Raises
        BudgetExceededError when the node limit runs out or the deadline
        has passed, checked at the root and at every node of either phase.
        """
        budget = budget or DEFAULT_BUDGET
        self.nodes_explored = 0
        if self._failed:
            return
        budget.check()
        deadline = budget.deadline
        monotonic = time.monotonic
        dom = list(self.dom)
        if not self._propagate(dom, range(self.nvars), deadline):
            return
        node_limit = budget.node_limit
        nodes = 0
        nvars = self.nvars
        shown = project
        if project is None and order == "index":
            project = range(nvars)
        value_of = {1 << v: v for v in range(self.domain_size)}  # by singleton domain

        def first_open(d: list[int]) -> int:
            for v in project:
                m = d[v]
                if m & (m - 1):
                    return v
            return -1

        def smallest_open(d: list[int]) -> int:
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
        # The frames from ``rest`` up search for an extension of a full
        # assignment of ``project``; None while the search is on ``project``.
        stack: list[tuple[list[int], int, int]] = []
        rest: int | None = None
        cur: list[int] | None = dom
        del dom
        while True:
            if cur is not None:
                var = -1
                if project is not None and rest is None:
                    var = first_open(cur)
                    if var < 0:
                        rest = len(stack)
                if var < 0:
                    var = smallest_open(cur)
                if var < 0:
                    self.nodes_explored = nodes
                    yield tuple(map(value_of.__getitem__,
                                    cur if shown is None else map(cur.__getitem__, shown)))
                    if rest is not None:
                        del stack[rest:]
                        rest = None
                else:
                    stack.append((cur, var, cur[var]))
                cur = None
            if not stack:
                self.nodes_explored = nodes
                return
            base, var, pending = stack[-1]
            if not pending:
                stack.pop()
                if len(stack) == rest:
                    rest = None
                continue
            low = pending & -pending
            stack[-1] = (base, var, pending ^ low)
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                self.nodes_explored = nodes
                raise BudgetExceededError("node limit exceeded")
            if deadline is not None and monotonic() > deadline:
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
