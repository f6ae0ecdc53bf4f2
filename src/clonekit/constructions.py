"""Relational and algebraic construction operators.

Primitive positive formulas are evaluated by joining atom relations with
early pruning.  pp-powers regroup a kn-ary satisfaction set into k blocks
of n coded coordinates.  Definability of a candidate relation is decided
through the polymorphism side of the Galois connection: a relation is
pp-definable iff no polymorphism violates it, and arity |R| suffices for a
complete answer.  Reflections transport operation sets along a pair of
maps h1: B -> A, h2: A -> B.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .clones import (
    DEFAULT_TABLE_CAP,
    OperationTable,
    column_cells,
    is_polymorphism,
    preservation_scopes,
    preserves,
)
from .homs import HomMap, core_of, hom_equivalent
from .search import BudgetExceededError, CrossCheckError, Csp, Outcome, SearchBudget
from .structures import (
    DEFAULT_POWER_CAP,
    CapacityError,
    RelStructure,
    Signature,
    TupleCoding,
)


@dataclass(frozen=True)
class PPFormula:
    """Primitive positive formula: atoms + equalities under exists-prefix.

    Variables are indices; 0..free_vars-1 are free, the rest existential.
    Equality atoms are kept explicit rather than compiled away.
    """

    free_vars: int
    exist_vars: int
    atoms: tuple[tuple[str, tuple[int, ...]], ...]
    eq_atoms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.free_vars + self.exist_vars
        if self.free_vars < 0 or self.exist_vars < 0:
            raise ValueError("negative variable counts")
        for _, args in self.atoms:
            if any(not 0 <= v < n for v in args):
                raise ValueError("atom variable index out of range")
        for i, j in self.eq_atoms:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("equality variable index out of range")

    def check_against(self, sig: Signature):
        for name, args in self.atoms:
            if name not in sig:
                raise ValueError(f"formula uses unknown relation {name!r}")
            if len(args) != sig.arity(name):
                raise ValueError(f"atom {name!r} has {len(args)} arguments, "
                                 f"expected {sig.arity(name)}")


def evaluate_pp(a: RelStructure, phi: PPFormula) -> tuple[tuple[int, ...], ...]:
    """The exact satisfaction set of phi over ``a`` (free-variable tuples)."""
    phi.check_against(a.signature)
    n = phi.free_vars + phi.exist_vars
    # variables equated by equality atoms share one slot
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for i, j in phi.eq_atoms:
        ri, rj = find(i), find(j)
        if ri != rj:
            rep[max(ri, rj)] = min(ri, rj)
    slot = [find(i) for i in range(n)]

    partials: list[dict[int, int]] = [{}]
    for name, args in phi.atoms:
        rel = a.relations[name]
        new = []
        for p in partials:
            for t in rel:
                q = dict(p)
                ok = True
                for v, val in zip(args, t):
                    s = slot[v]
                    bound = q.get(s)
                    if bound is None:
                        q[s] = val
                    elif bound != val:
                        ok = False
                        break
                if ok:
                    new.append(q)
        partials = new
        if not partials:
            break

    # free slots untouched by any atom range over the whole domain
    free_slots = sorted({slot[v] for v in range(phi.free_vars)})
    out = set()
    for p in partials:
        unbound = [s for s in free_slots if s not in p]
        for extra in itertools.product(range(a.size), repeat=len(unbound)):
            q = dict(p)
            q.update(zip(unbound, extra))
            out.add(tuple(q[slot[v]] for v in range(phi.free_vars)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Formula text syntax:  pp(x1,x2) := exists y1. R(x1,y1) & y1 = x2 ;
# ---------------------------------------------------------------------------

def parse_pp_formula(text: str) -> PPFormula:
    src = text.strip().rstrip(";").strip()
    m = re.match(r"^\s*\w+\s*\(([^)]*)\)\s*:=\s*(.*)$", src, re.S)
    if not m:
        raise ValueError("formula must look like 'pp(x1,x2) := ...'")
    head, body = m.group(1), m.group(2).strip()
    free_names = [v.strip() for v in head.split(",") if v.strip()]
    varmap = {name: i for i, name in enumerate(free_names)}
    if len(varmap) != len(free_names):
        raise ValueError("duplicate free variable in head")
    nfree = len(free_names)
    em = re.match(r"^exists\s+([^.]*)\.(.*)$", body, re.S)
    if em:
        for v in em.group(1).split(","):
            v = v.strip()
            if not v:
                continue
            if v in varmap:
                raise ValueError(f"existential variable {v!r} shadows another")
            varmap[v] = len(varmap)
        body = em.group(2).strip()
    atoms = []
    eqs = []
    if body:
        for part in body.split("&"):
            part = part.strip()
            am = re.match(r"^(\w+)\s*\(([^)]*)\)$", part)
            if am:
                args = []
                for v in am.group(2).split(","):
                    v = v.strip()
                    if v not in varmap:
                        raise ValueError(f"unknown variable {v!r}")
                    args.append(varmap[v])
                atoms.append((am.group(1), tuple(args)))
                continue
            qm = re.match(r"^(\w+)\s*=\s*(\w+)$", part)
            if qm:
                u, w = qm.group(1), qm.group(2)
                if u not in varmap or w not in varmap:
                    raise ValueError(f"unknown variable in equality {part!r}")
                eqs.append((varmap[u], varmap[w]))
                continue
            raise ValueError(f"cannot parse conjunct {part!r}")
    return PPFormula(nfree, len(varmap) - nfree, tuple(atoms), tuple(eqs))


# ---------------------------------------------------------------------------
# pp-powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PPPowerSpec:
    """Dimension n plus one defining formula per output relation.

    A k-ary output relation is defined by a formula with k*n free
    variables, grouped into k blocks of n coordinates.
    """

    dimension: int
    defs: tuple[tuple[str, int, PPFormula], ...]  # (name, arity, formula)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name, arity, phi in self.defs:
            if phi.free_vars != arity * self.dimension:
                raise ValueError(
                    f"output {name!r}: formula has {phi.free_vars} free variables, "
                    f"expected {arity} * {self.dimension}")

    def out_signature(self) -> Signature:
        return Signature.of((name, arity) for name, arity, _ in self.defs)


def identity_power_spec(a: RelStructure) -> PPPowerSpec:
    """The dimension-1 spec mapping every relation to its own atom."""
    defs = []
    for name, arity in a.signature.rel_names:
        defs.append((name, arity, PPFormula(arity, 0, ((name, tuple(range(arity))),))))
    return PPPowerSpec(1, tuple(defs))


def pp_power(a: RelStructure, spec: PPPowerSpec,
             cap: int = DEFAULT_POWER_CAP) -> RelStructure:
    """The pp-power structure on domain {0 .. size^n - 1}."""
    n = spec.dimension
    dom = a.size**n
    if dom > cap:
        raise CapacityError(f"pp-power domain {dom} exceeds cap {cap}")
    coding = TupleCoding(a.size, n)
    rels = {}
    for name, arity, phi in spec.defs:
        sat = evaluate_pp(a, phi)
        rels[name] = [
            tuple(coding.encode(t[j * n:(j + 1) * n]) for j in range(arity))
            for t in sat
        ]
    return RelStructure(dom, spec.out_signature(), rels)


# ---------------------------------------------------------------------------
# pp-definability via the Galois connection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PPDefResult:
    definable: bool
    complete: bool             # True iff the search covered arity |R|
    arity_searched: int
    violator: OperationTable | None = None
    selection: tuple[tuple[int, ...], ...] | None = None

    @property
    def certified_not_definable(self) -> bool:
        return not self.definable


def is_pp_definable(a: RelStructure, rel: Iterable[Sequence[int]], arity: int,
                    budget: SearchBudget | None = None, max_arity: int = 4,
                    cap: int = DEFAULT_TABLE_CAP) -> PPDefResult:
    """Decide pp-definability of a candidate relation over ``a``.

    A violating polymorphism (one that preserves all relations of ``a`` but
    moves some selection of R-tuples outside R) certifies non-definability.
    Searching up to arity |R| is complete; the default cap of
    min(|R|, max_arity) yields a bounded check otherwise, reported via the
    ``complete`` flag.
    """
    tuples = sorted({tuple(t) for t in rel})
    for t in tuples:
        if len(t) != arity or any(not 0 <= v < a.size for v in t):
            raise ValueError(f"candidate tuple {t} does not fit arity {arity}/size {a.size}")
    m = len(tuples)
    d = a.size
    if d**arity > cap:
        raise CapacityError("candidate relation arity too large for complement table")
    complement = sorted(set(itertools.product(range(d), repeat=arity))
                        .difference(tuples))
    limit = min(m, max_arity)
    if not complement or m == 0:
        return PPDefResult(True, True, 0)
    for n in range(1, limit + 1):
        if d**n > cap:
            return PPDefResult(True, False, n - 1)
        preservation = [(list(preservation_scopes(a, name, n)), a.relations[name])
                        for name, _ in a.signature.rel_names]
        for sel in itertools.combinations(tuples, n):
            csp = Csp(d**n, d)
            for scopes, allowed in preservation:
                csp.add_constraint(scopes, allowed)
            csp.add_constraint([column_cells(d, sel, arity)], complement)
            outcome, sol = csp.solve(budget=budget)
            if outcome is Outcome.BUDGET:
                raise BudgetExceededError("pp-definability budget exhausted")
            if outcome is Outcome.FOUND:
                f = OperationTable(d, n, sol)
                if not is_polymorphism(f, a):
                    raise CrossCheckError("violator is not a polymorphism")
                if preserves(f, tuples):
                    raise CrossCheckError("violator preserves the relation")
                return PPDefResult(False, True, n, f, sel)
    return PPDefResult(True, limit >= m, limit)


# ---------------------------------------------------------------------------
# Reflections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionMaps:
    """h1: B -> A and h2: A -> B, as value vectors."""

    h1: tuple[int, ...]
    h2: tuple[int, ...]

    def __post_init__(self):
        size_a = len(self.h2)
        size_b = len(self.h1)
        if any(not 0 <= v < size_a for v in self.h1):
            raise ValueError("h1 value out of range")
        if any(not 0 <= v < size_b for v in self.h2):
            raise ValueError("h2 value out of range")

    @property
    def source_size(self) -> int:  # |A|
        return len(self.h2)

    @property
    def target_size(self) -> int:  # |B|
        return len(self.h1)

    def is_retraction(self) -> bool:
        return all(self.h2[self.h1[b]] == b for b in range(self.target_size))


def reflect_operation(f: OperationTable, maps: ReflectionMaps) -> OperationTable:
    """(x_1..x_n) -> h2(f(h1(x_1), ..., h1(x_n))) as a table over B."""
    if f.domain_size != maps.source_size:
        raise ValueError("operation domain does not match h2's domain")
    b = maps.target_size
    h1, h2 = maps.h1, maps.h2
    d = f.domain_size
    table = []
    for xs in itertools.product(range(b), repeat=f.arity):
        idx = 0
        for x in xs:
            idx = idx * d + h1[x]
        table.append(h2[f.table[idx]])
    return OperationTable(b, f.arity, tuple(table))


def reflect_operations(ops: Iterable[OperationTable],
                       maps: ReflectionMaps) -> tuple[OperationTable, ...]:
    """Reflect a set of operations; the result is deduplicated and sorted."""
    out = {reflect_operation(f, maps) for f in ops}
    return tuple(sorted(out, key=OperationTable.sort_key))


# ---------------------------------------------------------------------------
# pp-constructibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PpConstructionResult:
    outcome: Outcome
    power: RelStructure | None = None
    forward: HomMap | None = None    # power -> B
    backward: HomMap | None = None   # B -> power

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def check_pp_constructible(a: RelStructure, b: RelStructure, spec: PPPowerSpec,
                           budget: SearchBudget | None = None,
                           cap: int = DEFAULT_POWER_CAP) -> PpConstructionResult:
    """Check one GIVEN construction: is b homomorphically equivalent to the
    pp-power of a described by ``spec``?  This does not search the space of
    specs; see bounded_pp_search for that."""
    if spec.out_signature() != b.signature:
        raise ValueError("spec output signature does not match b")
    power = pp_power(a, spec, cap)
    eq = hom_equivalent(power, b, budget)
    return PpConstructionResult(eq.outcome, power, eq.forward, eq.backward)


@dataclass(frozen=True)
class PPSearchBounds:
    max_dimension: int
    max_existentials: int
    max_atoms: int


@dataclass(frozen=True)
class BoundedSearchResult:
    outcome: Outcome            # FOUND / REFUTED (= none within bounds) / BUDGET
    bounds: PPSearchBounds
    spec: PPPowerSpec | None = None
    power: RelStructure | None = None
    forward: HomMap | None = None
    backward: HomMap | None = None

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def _candidate_formulas(a: RelStructure, free: int, bounds: PPSearchBounds):
    """Semantically distinct candidate formulas with ``free`` free variables,
    ordered by (atom count, representation).  Existential-variable
    renamings are pruned by keeping one evaluation result per tuple set."""
    atoms_pool = []
    for e in range(bounds.max_existentials + 1):
        nv = free + e
        pool = []
        for name, ar in a.signature.rel_names:
            for args in itertools.product(range(nv), repeat=ar):
                pool.append(((name, args), None))
        for i in range(nv):
            for j in range(i + 1, nv):
                pool.append((None, (i, j)))
        atoms_pool.append(pool)
    seen_sets = {}
    ordered = []
    for natoms in range(bounds.max_atoms + 1):
        for e in range(bounds.max_existentials + 1):
            pool = atoms_pool[e]
            for combo in itertools.combinations(range(len(pool)), natoms):
                rel_atoms = []
                eq_atoms = []
                used_exist = set()
                for idx in combo:
                    atom, eq = pool[idx]
                    if atom is not None:
                        rel_atoms.append(atom)
                        used_exist.update(v for v in atom[1] if v >= free)
                    else:
                        eq_atoms.append(eq)
                        used_exist.update(v for v in eq if v >= free)
                # skip formulas that do not mention their innermost
                # existential: an equivalent smaller-e candidate exists
                if e > 0 and (free + e - 1) not in used_exist:
                    continue
                try:
                    phi = PPFormula(free, e, tuple(rel_atoms), tuple(eq_atoms))
                    sat = evaluate_pp(a, phi)
                except ValueError:
                    continue
                if sat in seen_sets:
                    continue
                seen_sets[sat] = phi
                ordered.append((natoms, phi, sat))
    return ordered


def bounded_pp_search(a: RelStructure, b: RelStructure, bounds: PPSearchBounds,
                      budget: SearchBudget | None = None,
                      cap: int = DEFAULT_POWER_CAP) -> BoundedSearchResult:
    """Enumerate pp-power specs within bounds until one makes b
    homomorphically equivalent to the power.

    A REFUTED outcome means "no spec within these bounds", never a proof
    that b cannot be pp-constructed from a.
    """
    budget = budget or SearchBudget()
    nodes_used = 0
    # a structure homomorphically equivalent to b has at least |core(b)|
    # elements, and every power of a has that many when |a| >= |b|
    try:
        least = core_of(b, budget).core.size if a.size < b.size else 1
    except BudgetExceededError:
        return BoundedSearchResult(Outcome.BUDGET, bounds)
    for dim in range(1, bounds.max_dimension + 1):
        if a.size**dim > cap:
            break
        if a.size**dim < least:
            continue
        coding = TupleCoding(a.size, dim)
        out_rels = list(b.signature.rel_names)
        candidates = []
        for name, arity in out_rels:
            cands = _candidate_formulas(a, arity * dim, bounds)
            encoded = []
            for natoms, phi, sat in cands:
                tuples = tuple(
                    tuple(coding.encode(t[j * dim:(j + 1) * dim]) for j in range(arity))
                    for t in sat)
                # a hom b -> power needs nonempty images for nonempty relations
                if b.relations[name] and not tuples:
                    continue
                encoded.append((natoms, phi, tuples))
            if not encoded:
                candidates = None
                break
            candidates.append(encoded)
        if candidates is None:
            continue
        # iterate assignments ordered by total atom count
        max_total = bounds.max_atoms * len(out_rels)
        for total in range(max_total + 1):
            for picks in _picks_with_total(candidates, total):
                rels = {out_rels[i][0]: list(picks[i][2]) for i in range(len(out_rels))}
                power = RelStructure(a.size**dim, b.signature, rels)
                eq = hom_equivalent(power, b, budget)
                nodes_used += eq.nodes
                if budget.node_limit is not None and nodes_used > budget.node_limit:
                    return BoundedSearchResult(Outcome.BUDGET, bounds)
                if eq.outcome is Outcome.BUDGET:
                    return BoundedSearchResult(Outcome.BUDGET, bounds)
                if eq.found:
                    spec = PPPowerSpec(dim, tuple(
                        (out_rels[i][0], out_rels[i][1], picks[i][1])
                        for i in range(len(out_rels))))
                    return BoundedSearchResult(Outcome.FOUND, bounds, spec, power,
                                               eq.forward, eq.backward)
    return BoundedSearchResult(Outcome.REFUTED, bounds)


def _picks_with_total(candidates, total):
    """All ways to pick one candidate per relation with atom counts summing
    to ``total``; deterministic order."""
    def rec(i, remaining):
        if i == len(candidates):
            if remaining == 0:
                yield ()
            return
        for item in candidates[i]:
            if item[0] <= remaining:
                for rest in rec(i + 1, remaining - item[0]):
                    yield (item,) + rest
    return rec(0, total)


# ---------------------------------------------------------------------------
# pp-interpretation witness checking (verification only, no search)
# ---------------------------------------------------------------------------

def verify_pp_interpretation(a: RelStructure, b: RelStructure, dimension: int,
                             mapping: Mapping[tuple[int, ...], int],
                             domain_formula: PPFormula,
                             equality_formula: PPFormula,
                             relation_formulas: Mapping[str, PPFormula]) -> list[str]:
    """Check a user-supplied interpretation witness; returns a list of
    problems (empty = verified)."""
    problems = []
    n = dimension
    dom_set = set(mapping.keys())
    for t in dom_set:
        if len(t) != n or any(not 0 <= v < a.size for v in t):
            problems.append(f"domain tuple {t} malformed")
            return problems
    if set(mapping.values()) != set(range(b.size)):
        problems.append("mapping is not surjective onto the target domain")
    if domain_formula.free_vars != n:
        problems.append("domain formula has wrong free variable count")
    elif set(evaluate_pp(a, domain_formula)) != dom_set:
        problems.append("domain formula does not define the mapping's domain")
    if equality_formula.free_vars != 2 * n:
        problems.append("equality formula has wrong free variable count")
    else:
        want = {u + v for u in dom_set for v in dom_set if mapping[u] == mapping[v]}
        if set(evaluate_pp(a, equality_formula)) != want:
            problems.append("equality formula does not define the kernel of the mapping")
    for name, k in b.signature.rel_names:
        phi = relation_formulas.get(name)
        if phi is None:
            problems.append(f"missing formula for relation {name!r}")
            continue
        if phi.free_vars != k * n:
            problems.append(f"formula for {name!r} has wrong free variable count")
            continue
        rel = b.tuple_set(name)
        want = {tuple(itertools.chain.from_iterable(blocks))
                for blocks in itertools.product(dom_set, repeat=k)
                if tuple(mapping[u] for u in blocks) in rel}
        if set(evaluate_pp(a, phi)) != want:
            problems.append(f"formula for {name!r} does not define the preimage")
    return problems
