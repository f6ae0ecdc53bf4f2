"""Finite operation tables, clone generation, and identity-constrained search.

Operation tables are flat lookup vectors under the lexicographic tuple
coding (first argument most significant).  Polymorphism enumeration is a
homomorphism search from the n-th power into the structure, built directly
as a table-cell CSP.  Systems of height-1 identities are compiled to
equalities between table cells before search, so identity search and
relation preservation run through the same propagation kernel.  Every
height-1 evaluation reads its cells through ``minor_cells``: the cells an
n-ary table reads as the m-ary minor f(x_sigma(1), ..., x_sigma(n)), for
identities, projections and the minors of the h1 oracle alike.

One semi-naive kernel closes tuples under a clone's generators, each given
by its Cayley table: it generates the clone (closing the projection
tables) and the lifted relations of a free structure.  On two-element
domains its rounds run on numpy arrays and code marks, numpy imported there
on first use; on larger ones on Python lists and sets.  A commutative
binary generator takes each unordered pair of tuples once.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .homs import hom_csp
from .search import CrossCheckError, Csp, Outcome, SearchBudget
from .structures import (
    CapacityError,
    RelStructure,
    column_cells,
    selection_columns,
    shifted_codes,
)

# Table-cell capacity: domain_size ** arity must stay under this.
DEFAULT_TABLE_CAP = 2**20

# Cayley tables and numpy code marks of at most this many cells are built
# densely; larger Cayley tables fill lazily and their closures stay in Python
_DENSE_CELLS = DEFAULT_TABLE_CAP

_CLOCK_EVERY = 4096  # loop iterations between two reads of the budget's deadline


@dataclass(frozen=True)
class OperationTable:
    """A total finitary operation on {0..domain_size-1} as a flat table."""

    domain_size: int
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.domain_size < 1 or self.arity < 0:
            raise ValueError("need domain_size >= 1 and arity >= 0")
        if len(self.table) != self.domain_size**self.arity:
            raise ValueError("table length does not match domain_size ** arity")
        if min(self.table) < 0 or max(self.table) >= self.domain_size:
            raise ValueError("table entry out of range")

    def apply(self, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.domain_size + a
        return self.table[idx]

    def sort_key(self):
        return (self.arity, self.table)


def minor_cells(d: int, sigma: Sequence[int], m: int) -> tuple[int, ...]:
    """The cells an n-ary table (n = len(sigma)) reads when taken as the
    m-ary minor f(x_sigma[0], ..., x_sigma[n-1]): cell c of the minor, for
    the valuation of x_0..x_{m-1} with code c (first variable most
    significant), reads cell ``minor_cells(d, sigma, m)[c]`` of f.  For a
    single variable those cells are that variable's own values."""
    if len(sigma) == 1:
        block = d**(m - 1 - sigma[0])
        return tuple(c // block % d for c in range(d**m))
    return column_cells(d, [minor_cells(d, (s,), m) for s in sigma], d**m)


def _reflect(d: int, h1, h2, sources, budget: SearchBudget | None = None, columns=None):
    """Tables over a d-element A reflected along h1 and h2 through a power
    A^N: h1 holds one N-vector over A per element of B, and h2 maps
    N-vectors over A to its targets.  An n-ary table f goes to the tuple of
    h2[f(h1[b_1], ..., h1[b_n])], f applied coordinatewise, over the
    columns (b_1..b_n): ``columns``, or all of B^n in lexicographic order.
    With h1 the projections of B, a column's cells are
    ``minor_cells(d, column, |B|)``.

    ``sources`` yields pairs (n, tables), where ``tables(cells)`` gives
    n-ary tables, whole or restricted to ``cells``, the sorted union of the
    cells that the columns read.  One tuple is yielded per table, in order,
    and the deadline is read every ``_CLOCK_EVERY`` tables."""
    reads, ticks = {}, itertools.count()
    for n, tables in sources:
        if n not in reads:
            per = [column_cells(d, [h1[b] for b in col], len(h1[0]))
                   for col in (itertools.product(range(len(h1)), repeat=n)
                               if columns is None else columns)]
            cells = tuple(sorted(set().union(*per)))
            at = {c: j for j, c in enumerate(cells)}
            reads[n] = cells, per, [tuple(map(at.__getitem__, p)) for p in per]
        cells, per, pos = reads[n]
        for f in tables(cells):
            if budget and next(ticks) % _CLOCK_EVERY == 0:
                budget.check()
            look = f.__getitem__
            yield tuple(h2[tuple(map(look, p))] for p in (pos if len(f) == len(cells) else per))


def projection(domain_size: int, n: int, i: int) -> OperationTable:
    """The n-ary projection onto the i-th coordinate (1-based i)."""
    if not 1 <= i <= n:
        raise ValueError(f"projection index {i} out of range 1..{n}")
    return OperationTable(domain_size, n, minor_cells(domain_size, (i - 1,), n))


def compose(f: OperationTable, gs: Sequence[OperationTable]) -> OperationTable:
    """The pointwise composition f(g_1, ..., g_n)."""
    if len(gs) != f.arity:
        raise ValueError(f"{f.arity}-ary operation composed with {len(gs)} inner operations")
    if not gs:
        raise ValueError("0-ary composition has no inner arity; use a constant table directly")
    d = f.domain_size
    m = gs[0].arity
    for g in gs:
        if g.domain_size != d or g.arity != m:
            raise ValueError("inner operations must share domain and arity")
    *head, last = (g.table for g in gs)
    codes = map(add, shifted_codes(d, head, d**m), last)
    return OperationTable(d, m, tuple(map(f.table.__getitem__, codes)))


def preserves(f: OperationTable, tuples: Iterable[Sequence[int]]) -> bool:
    """True iff f applied componentwise to any selection of tuples stays inside.

    The selections' cells come a block of columns at a time from
    ``selection_columns``; f is read one column at a time, and the check
    stops at the first result outside the tuples."""
    rel = [tuple(t) for t in tuples]
    if not rel:
        return True
    member = set(rel)
    look = f.table.__getitem__
    return all(t in member
               for block in selection_columns(f.domain_size, rel, len(rel[0]), f.arity)
               for t in zip(*[map(look, col) for col in block]))


def is_polymorphism(f: OperationTable, a: RelStructure) -> bool:
    if f.domain_size != a.size:
        raise ValueError("operation domain does not match structure size")
    return all(preserves(f, a.relations[name]) for name, _ in a.signature.rel_names)


def preservation_scopes(a: RelStructure, name: str, n: int) -> Iterator[tuple[int, ...]]:
    """The cell scopes of an ``n``-ary table that must take a tuple of the
    relation ``name`` of ``a``: one per selection of ``n`` of its tuples, in
    ``itertools.product`` order, zipped from the blocks of
    ``selection_columns``.  A table is a polymorphism of ``a`` iff it meets
    those of every relation."""
    blocks = selection_columns(a.size, a.relations[name], a.signature.arity(name), n)
    return chain.from_iterable(zip(*block) for block in blocks)


def _polymorphism_csp(a: RelStructure, n: int) -> Csp:
    """Hom(A^n, A) as a table-cell CSP: the power is never materialized,
    its constraints are."""
    cells = a.size**n
    if cells > DEFAULT_TABLE_CAP:
        raise CapacityError(f"table with {cells} cells exceeds cap {DEFAULT_TABLE_CAP}")
    return hom_csp(cells, {name: preservation_scopes(a, name, n)
                           for name, _ in a.signature.rel_names}, a)


def polymorphisms(a: RelStructure, n: int,
                  budget: SearchBudget | None = None) -> Iterator[OperationTable]:
    """Stream all n-ary polymorphisms of ``a`` in lexicographic table order.

    Equivalent to enumerating homomorphisms from the n-th power of ``a``
    into ``a``.  Exhaustive when consumed to completion; raises
    BudgetExceededError if the budget runs out mid-stream.
    """
    for sol in _polymorphism_csp(a, n).solutions(budget=budget, order="index"):
        yield OperationTable(a.size, n, sol)


def all_polymorphisms(a: RelStructure, n: int,
                      budget: SearchBudget | None = None) -> list[OperationTable]:
    return list(polymorphisms(a, n, budget))


def polymorphism_restrictions(a: RelStructure, n: int, cells: Sequence[int],
                              budget: SearchBudget | None = None) -> Iterator[tuple[int, ...]]:
    """Stream each distinct restriction of an n-ary polymorphism of ``a``
    to the table cells ``cells`` once, as the tuple of its values there, in
    lexicographic order; over every cell in order these are the tables of
    ``polymorphisms``.  The search branches only on ``cells`` and looks for
    one extension of each of their assignments.  Raises
    BudgetExceededError if the budget runs out mid-stream.
    """
    yield from _polymorphism_csp(a, n).solutions(budget=budget, project=cells)


# ---------------------------------------------------------------------------
# Clone generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloneGenSet:
    """A finite set of generating operations on a shared domain."""

    domain_size: int
    generators: tuple[OperationTable, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.domain_size != self.domain_size:
                raise ValueError("generator domain size mismatch")
        ordered = tuple(sorted(set(self.generators), key=OperationTable.sort_key))
        object.__setattr__(self, "generators", ordered)

    @staticmethod
    def of(domain_size: int, gens: Iterable[OperationTable]) -> "CloneGenSet":
        return CloneGenSet(domain_size, tuple(gens))

    def acting(self) -> tuple[OperationTable, ...]:
        """The generators with each 0-ary one replaced by its unary constant,
        which acts the same on members of positive arity."""
        d = self.domain_size
        return tuple(g if g.arity else OperationTable(d, 1, (g.table[0],) * d)
                     for g in self.generators)


# results per block step, between two reads of the deadline, and table cells
# gathered at once by the numpy body: temporaries of a few MB at most
_BLOCK = 2**16


# frontier blocks per round of a commutative binary generator; a block also
# pairs its own members in both orders, at most about 1/_TRIANGLE more pairs
_TRIANGLE = 16


def seminaive_pools(g: OperationTable, old, frontier, every) -> list:
    """Argument pools for one semi-naive round of closing under ``g``.

    ``every`` is frontier + old, frontier first; the three are lists or
    arrays of tuples, sliced alike.  Between them the pools give every
    combination of ``g.arity`` members that holds a frontier member, once:
    position p takes the frontier, earlier positions the old members and
    later positions all of them.  A commutative binary ``g`` gives a pair
    and its mirror the same result, so it takes each unordered pair once:
    blocks (frontier[lo:hi], every[lo:]) pair the frontier member at i with
    every member from i on, and with the block's own members before i.
    """
    n, d, t = g.arity, g.domain_size, g.table
    if n == 2 and all(t[x * d + y] == t[y * d + x] for x in range(d) for y in range(x)):
        # a round of fewer than _BLOCK pairs stays one block: its mirrored
        # pairs cost less than the numpy body's fixed cost per block
        blocks = _TRIANGLE if len(frontier) * len(every) >= _BLOCK else 1
        width = -(-len(frontier) // blocks)
        return [(frontier[lo:lo + width], every[lo:])
                for lo in range(0, len(frontier), width)]
    return [[old] * p + [frontier] + [every] * (n - 1 - p) for p in range(n)]


class _PythonBody:
    """A closure's state in Python: pools are lists of tuples, and a
    round's results and the tuples seen so far are sets."""

    def __init__(self, cayleys, f: int, k: int):
        self.tables, self.f, self.k = cayleys, f, k

    def start(self, seeds: set) -> tuple[set, list]:
        return set(seeds), list(seeds)

    @staticmethod
    def join(frontier: list, old: list) -> list:
        return frontier + old

    @staticmethod
    def marks() -> set:
        return set()

    def apply(self, rows, pools, found: set, budget: SearchBudget | None):
        """Add to ``found`` T(t_1, ..., t_n) for every combination of tuples
        t_p from ``pools[p]``, a row lookup per last argument."""
        *heads, last = pools
        columns = list(zip(*last))
        period = max(1, _CLOCK_EVERY // max(1, len(last)))  # about _CLOCK_EVERY results apart
        for i, combo in enumerate(itertools.product(*heads), 1):
            if budget and not i % period:
                budget.check()
            found.update(zip(*[map(rows[h].__getitem__, col)
                               for h, col in zip(column_cells(self.f, combo, self.k), columns)]))

    @staticmethod
    def fresh(found: set, seen: set) -> list:
        found -= seen
        seen |= found
        return list(found)

    @staticmethod
    def tuples(seen: set) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(seen))


class _NumpyBody:
    """A closure's state in numpy: a pool of N tuples is an (N, k) view of a
    (k, N) int32 array of coordinates, and a round's results and the tuples
    seen so far are boolean marks over the f**k codes of k-tuples.  A code
    reads the coordinates as base-f digits, the first most significant, so
    marked codes come out in sorted tuple order."""

    def __init__(self, cayleys, f: int, k: int):
        import numpy as np

        self.f, self.k = f, k
        # each Cayley table with rows by head code, and transposed, by last argument
        self.tables = []
        for rows in cayleys:
            table = np.array(rows, dtype=np.int32)
            self.tables.append((table, np.ascontiguousarray(table.T)))
        # one block step's codes, and one coordinate's digits, reused by every step
        self.code, self.part = np.empty(_BLOCK, dtype=np.intp), np.empty(_BLOCK, dtype=np.intp)

    def start(self, seeds: set):
        import numpy as np

        seen = self.marks()
        seen[np.array(list(seeds)) @ [self.f**j for j in range(self.k - 1, -1, -1)]] = True
        return seen, self._pool(seen)

    def _pool(self, mark):
        import numpy as np

        code = np.flatnonzero(mark)
        coords = np.empty((self.k, code.size), dtype=np.int32)
        for j in range(self.k - 1, -1, -1):
            code, coords[j] = np.divmod(code, self.f)
        return coords.T

    @staticmethod
    def join(frontier, old):
        import numpy as np

        return np.concatenate((frontier.T, old.T), axis=1).T

    def marks(self):
        import numpy as np

        return np.zeros(self.f**self.k, dtype=bool)

    def apply(self, rows, pools, found, budget: SearchBudget | None):
        """Mark in ``found`` T(t_1, ..., t_n) for every combination of tuples
        t_p from ``pools[p]``.  A result's code is the sum over coordinates
        j of T's cell at their head code and last argument, times
        f**(k-1-j).  One side, the last arguments or the head combinations,
        is cut into chunks, and each chunk takes its table rows whole and
        scaled, once; a block step gathers those by the other side, adds
        them and marks the codes.  The side cut into chunks is the one whose
        rows hold fewer cells in all."""
        import numpy as np

        table, table_t = rows
        f, k = self.f, self.k
        *heads, last = (pool.T for pool in pools)  # row j: the pool's j-th coordinates
        combos = math.prod(pool.shape[1] for pool in heads)
        by_last = table.shape[0] * last.shape[1] <= f * combos
        for c in range(0, combos, _BLOCK):
            # head combinations c, c+1, ... read as mixed-radix digits, one per
            # pool, give the row codes of the Cayley table
            combo = np.arange(c, min(c + _BLOCK, combos))
            head = np.zeros((k, combo.size), dtype=np.int32)
            for pool in heads:
                combo, i = np.divmod(combo, pool.shape[1])
                head = head * f + pool[:, i]
            # rows of the table by last argument or by head code, taken whole
            cells, chunked, gathered = (table_t, last, head) if by_last else (table, head, last)
            width = max(1, min(chunked.shape[1], _BLOCK // cells.shape[1]))
            step = max(1, _BLOCK // width)
            for a in range(0, chunked.shape[1], width):
                digits = [np.multiply(cells.take(chunked[j, a:a + width], axis=0).T,
                                      f**(k - 1 - j), dtype=np.intp, order="C")
                          for j in range(k)]
                for s in range(0, gathered.shape[1], step):
                    if budget:
                        budget.check()
                    picks = gathered[:, s:s + step]
                    shape = (picks.shape[1], digits[0].shape[1])
                    code = self.code[:shape[0] * shape[1]].reshape(shape)
                    part = self.part[:code.size].reshape(shape)
                    # the gathered rows are in range, and only mode="clip"
                    # writes into out without buffering
                    digits[0].take(picks[0], axis=0, out=code, mode="clip")
                    for j in range(1, k):
                        np.add(code, digits[j].take(picks[j], axis=0, out=part, mode="clip"),
                               out=code)
                    found[code] = True

    def fresh(self, found, seen):
        found &= ~seen
        seen |= found
        return self._pool(found)

    def tuples(self, seen) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._pool(seen).tolist()))


def _closure_of_tuples(seeds, generators, cayleys, f: int, d: int,
                       budget: SearchBudget | None = None) -> tuple[tuple[int, ...], ...]:
    """The sorted closure of a set of k-tuples over {0..f-1} under the
    componentwise action of the generators, given their Cayley tables:
    ``cayleys[i][h][j]`` is generator i applied to the head arguments whose
    base-f code is h, and to j last.

    Rounds are semi-naive: each applies the generators only to combinations
    that hold a tuple new in the previous round, as ``seminaive_pools``
    lays them out.  On a two-element domain ``d``, with filled Cayley
    tables and f**k under ``_DENSE_CELLS``, the state lives in numpy arrays
    and code marks (``_NumpyBody``), otherwise in Python lists and sets
    (``_PythonBody``); either body runs the same rounds.  The budget's
    deadline is read each round and about every ``_CLOCK_EVERY`` (Python)
    or ``_BLOCK`` (numpy) results; past ``DEFAULT_TABLE_CAP`` tuples,
    CapacityError is raised.  Once the closure holds all f**k tuples, the
    whole power, the rounds end after those two checks: a further round
    could find nothing new.
    """
    seeds = set(seeds)
    if not seeds:
        return ()
    k = len(next(iter(seeds)))
    whole = f**k  # the number of k-tuples
    vector = (d == 2 and whole <= _DENSE_CELLS
              and all(isinstance(rows, list) for rows in cayleys))
    body = (_NumpyBody if vector else _PythonBody)(cayleys, f, k)
    seen, frontier = body.start(seeds)
    old, size = frontier[:0], len(frontier)
    while len(frontier):
        if budget:
            budget.check()
        if size > DEFAULT_TABLE_CAP:
            raise CapacityError(f"closure exceeds the cap of {DEFAULT_TABLE_CAP} tuples")
        if size == whole:  # every k-tuple is seen: no round can add one
            break
        every = body.join(frontier, old)
        found = body.marks()
        for g, rows in zip(generators, body.tables):
            for pools in seminaive_pools(g, old, frontier, every):
                body.apply(rows, pools, found, budget)
        old, frontier = every, body.fresh(found, seen)
        size += len(frontier)
    return body.tuples(seen)


def generate_to_arity(gen: CloneGenSet, k: int,
                      budget: SearchBudget | None = None) -> tuple[OperationTable, ...]:
    """All k-ary members of the generated clone, sorted by table: the
    closure of the k projection tables, where a generator's Cayley table is
    its own table cut into rows of d cells.  ``DEFAULT_TABLE_CAP`` bounds
    the table size and the member count, past either CapacityError is
    raised; the budget is read as in ``_closure_of_tuples``."""
    d = gen.domain_size
    width = d**k
    if width > DEFAULT_TABLE_CAP:
        raise CapacityError(f"table with {width} cells exceeds cap {DEFAULT_TABLE_CAP}")
    acting = gen.acting()
    cayleys = [[g.table[i:i + d] for i in range(0, len(g.table), d)] for g in acting]
    seeds = [projection(d, k, i).table for i in range(1, k + 1)]
    return tuple(OperationTable(d, k, t)
                 for t in _closure_of_tuples(seeds, acting, cayleys, d, d, budget))


# ---------------------------------------------------------------------------
# Height <= 1 identity systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatTerm:
    """symbol(args...) when symbol is set; a bare variable otherwise."""

    symbol: str | None
    args: tuple[int, ...]

    def var_count(self) -> int:
        return max(self.args) + 1 if self.args else 0


@dataclass(frozen=True)
class H1IdentitySystem:
    """Named operation symbols plus equations between height <= 1 terms.

    Variable indices are local to each equation.
    """

    symbols: tuple[tuple[str, int], ...]
    equations: tuple[tuple[FlatTerm, FlatTerm], ...]

    def __post_init__(self):
        arities = dict(self.symbols)
        if len(arities) != len(self.symbols):
            raise ValueError("duplicate symbol name")
        for lhs, rhs in self.equations:
            for side in (lhs, rhs):
                if side.symbol is None:
                    if len(side.args) != 1:
                        raise ValueError("a bare-variable side must be one variable")
                elif side.symbol not in arities:
                    raise ValueError(f"undeclared symbol {side.symbol!r}")
                elif len(side.args) != arities[side.symbol]:
                    raise ValueError(f"arity mismatch for {side.symbol!r}")

    def arity(self, name: str) -> int:
        return dict(self.symbols)[name]


def parse_identity_system(text: str) -> H1IdentitySystem:
    """Parse the identity DSL: ``t(a,r,e,a) = t(r,a,r,e); p(x,y,y) = x;``

    Variables are single letters, or arbitrary names in quotes.  Symbols are
    whatever appears applied to an argument list; arities are inferred.
    """
    symbols: dict[str, int] = {}
    equations = []

    def parse_side(src: str, varmap: dict[str, int]) -> FlatTerm:
        src = src.strip()
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", src, re.S)
        if m:
            name, argsrc = m.group(1), m.group(2)
            args = []
            for raw in argsrc.split(","):
                raw = raw.strip()
                qm = re.match(r"""^(['"])(.+)\1$""", raw)
                if qm:
                    var = qm.group(2)
                elif re.fullmatch(r"[A-Za-z]", raw):
                    var = raw
                else:
                    raise ValueError(
                        f"bad variable {raw!r}: use a single letter or quote it")
                args.append(varmap.setdefault(var, len(varmap)))
            if name in symbols and symbols[name] != len(args):
                raise ValueError(f"symbol {name!r} used with two arities")
            symbols.setdefault(name, len(args))
            return FlatTerm(name, tuple(args))
        qm = re.match(r"""^(['"])(.+)\1$""", src)
        if qm:
            var = qm.group(2)
        elif re.fullmatch(r"[A-Za-z]", src):
            var = src
        else:
            raise ValueError(f"cannot parse term {src!r}")
        return FlatTerm(None, (varmap.setdefault(var, len(varmap)),))

    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        if "=" not in stmt:
            raise ValueError(f"equation {stmt!r} has no '='")
        left, _, right = stmt.partition("=")
        varmap: dict[str, int] = {}
        equations.append((parse_side(left, varmap), parse_side(right, varmap)))
    return H1IdentitySystem(tuple(sorted(symbols.items())), tuple(equations))


def satisfies_system(assignment: Mapping[str, OperationTable],
                     system: H1IdentitySystem) -> bool:
    """Check every equation by comparing its two sides as m-ary tables,
    m the equation's variable count.  A system without symbols has no
    domain: each of its equations equates two bare variables, and holds iff
    they are the same variable."""
    if not system.symbols:
        return all(lhs.args == rhs.args for lhs, rhs in system.equations)
    d = None
    for name, arity in system.symbols:
        op = assignment[name]
        if op.arity != arity:
            return False
        d = op.domain_size if d is None else d
        if op.domain_size != d:
            return False

    def table(side: FlatTerm, m: int) -> tuple[int, ...]:
        cells = minor_cells(d, side.args, m)
        if side.symbol is None:
            return cells
        return tuple(map(assignment[side.symbol].table.__getitem__, cells))

    for lhs, rhs in system.equations:
        m = max(lhs.var_count(), rhs.var_count())
        if table(lhs, m) != table(rhs, m):
            return False
    return True


@dataclass(frozen=True)
class OpSearchResult:
    outcome: Outcome
    assignment: dict[str, OperationTable] | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


class _UnionFind:
    """Union-find over table cells whose classes may be pinned to a value."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.value: dict[int, int] = {}
        self.consistent = True

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        vx, vy = self.value.get(rx), self.value.get(ry)
        if vx is not None and vy is not None and vx != vy:
            self.consistent = False
            return
        self.parent[rx] = ry
        if vx is not None:
            self.value[ry] = vx

    def pin(self, x: int, v: int):
        r = self.find(x)
        old = self.value.get(r)
        if old is not None and old != v:
            self.consistent = False
        self.value[r] = v


def find_operation_satisfying(a: RelStructure, system: H1IdentitySystem,
                              budget: SearchBudget | None = None) -> OpSearchResult:
    """Search for polymorphisms of ``a`` jointly satisfying the system.

    Identities are compiled to equalities between table cells (plus value
    pins for bare-variable sides); the cells are then the CSP variables,
    constrained to preserve every relation of ``a``.  A FOUND assignment is
    re-verified independently of the search before being returned; a system
    without symbols has no table, and the cell equalities alone decide it.
    """
    d = a.size
    offsets = {}
    total = 0
    for name, arity in system.symbols:
        cells = d**arity
        if cells > DEFAULT_TABLE_CAP:
            raise CapacityError(
                f"symbol {name!r} needs {cells} cells, over cap {DEFAULT_TABLE_CAP}")
        offsets[name] = total
        total += cells

    uf = _UnionFind(total)
    # per valuation, in minor-cell order, since the order of unions numbers
    # the CSP variables: a symbol side gives a table cell, a bare variable
    # its value
    for lhs, rhs in system.equations:
        if lhs.symbol is None:
            lhs, rhs = rhs, lhs
        m = max(lhs.var_count(), rhs.var_count())
        left, right = (minor_cells(d, side.args, m) for side in (lhs, rhs))
        if lhs.symbol is None:
            uf.consistent = left == right
        elif rhs.symbol is None:
            for c, v in zip(left, right):
                uf.pin(offsets[lhs.symbol] + c, v)
        else:
            for x, y in zip(left, right):
                uf.union(offsets[lhs.symbol] + x, offsets[rhs.symbol] + y)
        if not uf.consistent:
            return OpSearchResult(Outcome.REFUTED)
    if not system.symbols:
        # no table to search or re-check: every equation equates two bare
        # variables, and all of them held at domain size d above
        return OpSearchResult(Outcome.FOUND, {})

    roots = sorted({uf.find(x) for x in range(total)})
    var_of_root = {r: i for i, r in enumerate(roots)}
    cell_var = [var_of_root[uf.find(x)] for x in range(total)]

    # per symbol, the CSP variable of each of its cells; a scope is a
    # selection's cells read through it, a column at a time, and cells
    # merged by the identities can give two symbols the same scope
    var_of = {name: cell_var[offsets[name]:offsets[name] + d**arity].__getitem__
              for name, arity in system.symbols}

    def scopes(rows, k):
        # built as the builder reads them, so that one relation's dict of
        # scopes is held at a time
        yield from dict.fromkeys(chain.from_iterable(
            zip(*[map(var_of[name], col) for col in block])
            for name, arity in system.symbols
            for block in selection_columns(d, rows, k, arity)))

    csp = hom_csp(len(roots), {name: scopes(a.relations[name], k)
                               for name, k in a.signature.rel_names},
                  a, {i: uf.value[r] for r, i in var_of_root.items() if r in uf.value})

    outcome, sol = csp.solve(budget=budget)
    nodes = csp.nodes_explored
    if outcome is not Outcome.FOUND:
        return OpSearchResult(outcome, nodes=nodes)
    assignment = {}
    for name, arity in system.symbols:
        base = offsets[name]
        table = tuple(sol[cell_var[base + i]] for i in range(d**arity))
        assignment[name] = OperationTable(d, arity, table)
    # independent re-verification of the certificate
    if not satisfies_system(assignment, system):
        raise CrossCheckError("found operations do not satisfy the identities")
    if not all(is_polymorphism(op, a) for op in assignment.values()):
        raise CrossCheckError("found operation is not a polymorphism")
    return OpSearchResult(Outcome.FOUND, assignment, nodes)


SIGGERS_SYSTEM = parse_identity_system("t(a,r,e,a) = t(r,a,r,e);")


def has_siggers(a: RelStructure, budget: SearchBudget | None = None) -> OpSearchResult:
    """Existence of a 4-ary operation t with t(a,r,e,a) = t(r,a,r,e)."""
    return find_operation_satisfying(a, SIGGERS_SYSTEM, budget)


def cyclic_system(n: int) -> H1IdentitySystem:
    if n < 2:
        raise ValueError("cyclic identities need arity >= 2")
    lhs = FlatTerm("t", tuple(range(n)))
    rhs = FlatTerm("t", tuple(range(1, n)) + (0,))
    return H1IdentitySystem((("t", n),), ((lhs, rhs),))


def has_cyclic(a: RelStructure, n: int,
               budget: SearchBudget | None = None) -> OpSearchResult:
    """Existence of an n-ary operation invariant under cyclic argument shift."""
    return find_operation_satisfying(a, cyclic_system(n), budget)


# ---------------------------------------------------------------------------
# Table serialization
# ---------------------------------------------------------------------------

def operation_to_dict(op: OperationTable) -> dict:
    return {"domain_size": op.domain_size, "arity": op.arity, "table": list(op.table)}


def operation_from_dict(obj) -> OperationTable:
    try:
        return OperationTable(int(obj["domain_size"]), int(obj["arity"]),
                              tuple(int(v) for v in obj["table"]))
    except (KeyError, TypeError) as e:
        raise ValueError(f"bad operation table object: {e}") from None


def clone_to_dict(gen: CloneGenSet) -> dict:
    return {"domain_size": gen.domain_size,
            "operations": [operation_to_dict(g) for g in gen.generators]}


def clone_from_dict(obj) -> CloneGenSet:
    try:
        d = int(obj["domain_size"])
        ops = [operation_from_dict(o) for o in obj["operations"]]
    except (KeyError, TypeError) as e:
        raise ValueError(f"bad clone object: {e}") from None
    return CloneGenSet.of(d, ops)
