"""Finite operation tables, clone generation, and identity-constrained search.

Operation tables are flat lookup vectors under the lexicographic tuple
coding (first argument most significant).  Polymorphism enumeration is a
homomorphism search from the n-th power into the structure, built directly
as a table-cell CSP.  Systems of height-1 identities are compiled to
equalities between table cells before search, so identity search and
relation preservation run through the same propagation kernel.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .search import CrossCheckError, Csp, Outcome, SearchBudget
from .structures import CapacityError, RelStructure, TupleCoding

# Table-cell capacity: domain_size ** arity must stay under this.
DEFAULT_TABLE_CAP = 2**20


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
        if any(not 0 <= v < self.domain_size for v in self.table):
            raise ValueError("table entry out of range")

    def apply(self, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.domain_size + a
        return self.table[idx]

    def coding(self) -> TupleCoding:
        return TupleCoding(self.domain_size, self.arity)

    def sort_key(self):
        return (self.arity, self.table)


def projection(domain_size: int, n: int, i: int) -> OperationTable:
    """The n-ary projection onto the i-th coordinate (1-based i)."""
    if not 1 <= i <= n:
        raise ValueError(f"projection index {i} out of range 1..{n}")
    coding = TupleCoding(domain_size, n)
    return OperationTable(domain_size, n,
                          tuple(vec[i - 1] for vec in coding.all_vectors()))


def shifted_codes(d: int, tables: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """Per cell, d times the code of the argument vector read from ``tables``
    (first table most significant).  Adding one more table's cell gives the
    code with that table as the last argument; with no tables it is all 0."""
    codes = (0,) * width
    for t in tables:
        codes = tuple(map(mul, map(add, codes, t), repeat(d)))
    return codes


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
    """True iff f applied componentwise to any selection of tuples stays inside."""
    rel = [tuple(t) for t in tuples]
    if not rel:
        return True
    member = set(rel)
    k = len(rel[0])
    d = f.domain_size
    table = f.table
    for sel in itertools.product(rel, repeat=f.arity):
        out = []
        for j in range(k):
            idx = 0
            for t in sel:
                idx = idx * d + t[j]
            out.append(table[idx])
        if tuple(out) not in member:
            return False
    return True


def is_polymorphism(f: OperationTable, a: RelStructure) -> bool:
    if f.domain_size != a.size:
        raise ValueError("operation domain does not match structure size")
    return all(preserves(f, a.relations[name]) for name, _ in a.signature.rel_names)


def column_cells(d: int, sel: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The table cells an operation reads when it is applied column-wise to
    the ``k``-tuples of ``sel``: cell j codes (t[j] for t in sel)."""
    if not sel:
        return (0,) * k
    *head, last = sel
    return tuple(map(add, shifted_codes(d, head, k), last))


def preservation_scopes(a: RelStructure, name: str, n: int) -> Iterator[tuple[int, ...]]:
    """The cell scopes of an ``n``-ary table that must take a tuple of the
    relation ``name`` of ``a``: one per selection of ``n`` of its tuples.  A
    table is a polymorphism of ``a`` iff it meets those of every relation."""
    k = a.signature.arity(name)
    return (column_cells(a.size, sel, k)
            for sel in itertools.product(a.relations[name], repeat=n))


def polymorphisms(a: RelStructure, n: int, budget: SearchBudget | None = None,
                  cap: int = DEFAULT_TABLE_CAP) -> Iterator[OperationTable]:
    """Stream all n-ary polymorphisms of ``a`` in lexicographic table order.

    Equivalent to enumerating homomorphisms from the n-th power of ``a``
    into ``a``; the power is never materialized, its constraints are.
    Exhaustive when consumed to completion; raises BudgetExceededError if
    the budget runs out mid-stream.
    """
    d = a.size
    cells = d**n
    if cells > cap:
        raise CapacityError(f"table with {cells} cells exceeds cap {cap}")
    csp = Csp(cells, d)
    for name, _ in a.signature.rel_names:
        csp.add_constraint(preservation_scopes(a, name, n), a.relations[name])
    for sol in csp.solutions(budget=budget, order="index"):
        yield OperationTable(d, n, sol)


def all_polymorphisms(a: RelStructure, n: int, budget: SearchBudget | None = None,
                      cap: int = DEFAULT_TABLE_CAP) -> list[OperationTable]:
    return list(polymorphisms(a, n, budget, cap))


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


def seminaive_pools(g: OperationTable, old: list, frontier: list, every: list) -> list:
    """Argument pools for one semi-naive round of closing under ``g``.

    Between them the pools give every combination of ``g.arity`` members
    that holds a frontier member, once: position p takes the frontier,
    earlier positions the old members and later positions all of them
    (``every`` is old + frontier).  A commutative binary ``g`` needs only
    frontier x all, since the mirrored combinations give the same results.
    """
    n, d, t = g.arity, g.domain_size, g.table
    if n == 2 and all(t[x * d + y] == t[y * d + x] for x in range(d) for y in range(x)):
        return [(frontier, every)]
    return [[old] * p + [frontier] + [every] * (n - 1 - p) for p in range(n)]


def generate_to_arity(gen: CloneGenSet, k: int, budget: SearchBudget | None = None,
                      cap: int = DEFAULT_TABLE_CAP) -> tuple[OperationTable, ...]:
    """All k-ary members of the generated clone, sorted by table.

    Fixpoint: seed with the k-ary projections, then in semi-naive rounds
    compose each generator with the k-ary members produced so far, over
    the combinations that hold a member new in the previous round.
    ``cap`` bounds both the table size and the number of generated members.
    """
    d = gen.domain_size
    width = d**k
    if width > cap:
        raise CapacityError(f"table with {width} cells exceeds cap {cap}")
    seen: dict[tuple[int, ...], OperationTable] = {}
    for i in range(1, k + 1):
        p = projection(d, k, i)
        seen[p.table] = p
    old: list[tuple[int, ...]] = []
    frontier = list(seen)
    while frontier:
        if len(seen) > cap:
            raise CapacityError(f"generated clone exceeds {cap} members at arity {k}")
        every = old + frontier
        new: list[tuple[int, ...]] = []
        for g in gen.acting():
            look = g.table.__getitem__
            for *heads, last in seminaive_pools(g, old, frontier, every):
                for head in itertools.product(*heads):
                    codes = shifted_codes(d, head, width)
                    for arg in last:
                        tab = tuple(map(look, map(add, codes, arg)))
                        if tab not in seen:
                            seen[tab] = OperationTable(d, k, tab)
                            new.append(tab)
        old, frontier = every, new
    return tuple(sorted(seen.values(), key=OperationTable.sort_key))


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


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    """Pointwise check of every equation over all variable valuations."""
    d = None
    for name, arity in system.symbols:
        op = assignment[name]
        if op.arity != arity:
            return False
        d = op.domain_size if d is None else d
        if op.domain_size != d:
            return False
    if d is None:
        d = 1

    def evaluate(side: FlatTerm, val: Sequence[int]) -> int:
        if side.symbol is None:
            return val[side.args[0]]
        idx = 0
        for v in side.args:
            idx = idx * d + val[v]
        return assignment[side.symbol].table[idx]

    for lhs, rhs in system.equations:
        nvars = max(lhs.var_count(), rhs.var_count())
        for val in itertools.product(range(d), repeat=nvars):
            if evaluate(lhs, val) != evaluate(rhs, val):
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
                              budget: SearchBudget | None = None,
                              cap: int = DEFAULT_TABLE_CAP) -> OpSearchResult:
    """Search for polymorphisms of ``a`` jointly satisfying the system.

    Identities are compiled to equalities between table cells (plus value
    pins for bare-variable sides); the cells are then the CSP variables,
    constrained to preserve every relation of ``a``.  A FOUND assignment is
    re-verified independently of the search before being returned.
    """
    d = a.size
    offsets = {}
    total = 0
    for name, arity in system.symbols:
        cells = d**arity
        if cells > cap:
            raise CapacityError(f"symbol {name!r} needs {cells} cells, over cap {cap}")
        offsets[name] = total
        total += cells

    uf = _UnionFind(total)

    def cell_of(term: FlatTerm, val: Sequence[int]) -> int:
        idx = 0
        for v in term.args:
            idx = idx * d + val[v]
        return offsets[term.symbol] + idx

    for lhs, rhs in system.equations:
        nvars = max(lhs.var_count(), rhs.var_count())
        for val in itertools.product(range(d), repeat=nvars):
            if lhs.symbol is None and rhs.symbol is None:
                if val[lhs.args[0]] != val[rhs.args[0]]:
                    uf.consistent = False
            elif lhs.symbol is None:
                uf.pin(cell_of(rhs, val), val[lhs.args[0]])
            elif rhs.symbol is None:
                uf.pin(cell_of(lhs, val), val[rhs.args[0]])
            else:
                uf.union(cell_of(lhs, val), cell_of(rhs, val))
            if not uf.consistent:
                return OpSearchResult(Outcome.REFUTED)

    roots = sorted({uf.find(x) for x in range(total)})
    var_of_root = {r: i for i, r in enumerate(roots)}
    cell_var = [var_of_root[uf.find(x)] for x in range(total)]

    csp = Csp(len(roots), d)
    for r, i in var_of_root.items():
        if r in uf.value:
            csp.assign(i, uf.value[r])

    # cells merged by the identities can give two symbols the same scope
    for rel_name, _ in a.signature.rel_names:
        scopes = {tuple(cell_var[offsets[name] + c] for c in scope): None
                  for name, arity in system.symbols
                  for scope in preservation_scopes(a, rel_name, arity)}
        csp.add_constraint(scopes, a.relations[rel_name])

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
