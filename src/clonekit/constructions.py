"""Relational and algebraic construction operators.

A primitive positive formula is evaluated as a CSP over all of its
variables on the kernel of ``search``, its free part projected out.  The
bounded pp search evaluates no candidate formula: it reads each pool atom
once over all free + e variables from the relation's minor, as a bitmask
over their ``TupleCoding`` codes (first variable most significant), ANDs the
masks of a formula's atoms, which is exact because every mask ranges over
all of the variables, and projects out the existentials, the last e
variables, by testing each block of d^e bits for nonzero.  pp-powers
regroup a kn-ary satisfaction set into k blocks of n coded coordinates.
Definability of a candidate relation is decided through the polymorphism
side of the Galois connection: a relation is pp-definable iff no
polymorphism violates it, and arity |R| suffices for a complete answer.
Reflections send f to h2(f(h1(x_1), ..., h1(x_n))) along h1: B -> A and
h2: A -> B: ``clones._reflect`` through the first power of A.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Mapping, Sequence

from .clones import (
    DEFAULT_TABLE_CAP,
    OperationTable,
    _reflect,
    is_polymorphism,
    minor_cells,
    preservation_scopes,
    preserves,
)
from .homs import HomMap, HomResult, core_of, hom_csp, hom_equivalent
from .search import BudgetExceededError, CrossCheckError, Csp, Outcome, SearchBudget
from .structures import (
    DEFAULT_POWER_CAP,
    CapacityError,
    RelStructure,
    Signature,
    TupleCoding,
    column_cells,
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
    """The exact satisfaction set of phi over ``a`` (free-variable tuples),
    sorted: the solutions of phi as a CSP over all of its variables,
    projected on the free ones, an existential that no atom mentions pinned
    to 0."""
    phi.check_against(a.signature)
    n = phi.free_vars + phi.exist_vars
    mentioned = {v for _, args in phi.atoms for v in args}.union(*phi.eq_atoms)
    csp = hom_csp(n, {name: [args for rel, args in phi.atoms if rel == name]
                      for name in a.signature.names()}, a,
                  {v: 0 for v in range(phi.free_vars, n) if v not in mentioned})
    csp.add_constraint(phi.eq_atoms, [(v, v) for v in range(a.size)])
    return tuple(csp.solutions(project=range(phi.free_vars)))


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


def pp_power(a: RelStructure, spec: PPPowerSpec) -> RelStructure:
    """The pp-power structure on domain {0 .. size^n - 1}."""
    n = spec.dimension
    dom = a.size**n
    if dom > DEFAULT_POWER_CAP:
        raise CapacityError(f"pp-power domain {dom} exceeds cap {DEFAULT_POWER_CAP}")
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


def is_pp_definable(a: RelStructure, rel: Iterable[Sequence[int]], arity: int,
                    budget: SearchBudget | None = None, max_arity: int = 4) -> PPDefResult:
    """Decide pp-definability of a candidate relation over ``a``.

    A violating polymorphism (one that preserves all relations of ``a`` but
    moves some selection of R-tuples outside R) certifies non-definability.
    Searching up to arity |R| is complete; the search stops at
    min(|R|, max_arity), and below any arity whose table exceeds
    ``DEFAULT_TABLE_CAP`` cells, reporting a bounded check via the
    ``complete`` flag.
    """
    tuples = sorted({tuple(t) for t in rel})
    for t in tuples:
        if len(t) != arity or any(not 0 <= v < a.size for v in t):
            raise ValueError(f"candidate tuple {t} does not fit arity {arity}/size {a.size}")
    m = len(tuples)
    d = a.size
    if d**arity > DEFAULT_TABLE_CAP:
        raise CapacityError("candidate relation arity too large for complement table")
    complement = sorted(set(itertools.product(range(d), repeat=arity))
                        .difference(tuples))
    limit = min(m, max_arity)
    if not complement or m == 0:
        return PPDefResult(True, True, 0)
    # every CSP below has domain size d, so each relation is compiled once
    # per equality pattern: a's relations by hom_csp into the memo on a,
    # the complement into one memo of this call
    complement_forms = {}
    for n in range(1, limit + 1):
        if d**n > DEFAULT_TABLE_CAP:
            return PPDefResult(True, False, n - 1)
        preservation = {name: list(preservation_scopes(a, name, n))
                        for name, _ in a.signature.rel_names}
        for sel in itertools.combinations(tuples, n):
            csp = hom_csp(d**n, preservation, a)
            csp.add_constraint([column_cells(d, sel, arity)], complement,
                               complement_forms)
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


def reflect_operation(f: OperationTable, maps: ReflectionMaps) -> OperationTable:
    """(x_1..x_n) -> h2(f(h1(x_1), ..., h1(x_n))) as a table over B."""
    if f.domain_size != maps.source_size:
        raise ValueError("operation domain does not match h2's domain")
    (table,) = _reflect(f.domain_size, [(v,) for v in maps.h1],
                        {(a,): v for a, v in enumerate(maps.h2)},
                        [(f.arity, lambda _: (f.table,))])
    return OperationTable(maps.target_size, f.arity, table)


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
                           budget: SearchBudget | None = None) -> PpConstructionResult:
    """Check one GIVEN construction: is b homomorphically equivalent to the
    pp-power of a described by ``spec``?  This does not search the space of
    specs; see bounded_pp_search for that."""
    if spec.out_signature() != b.signature:
        raise ValueError("spec output signature does not match b")
    power = pp_power(a, spec)
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


def _atom_mask(d: int, nv: int, args: tuple[int, ...], tuples) -> int:
    """The satisfaction set over all ``nv`` variables of the atom that puts
    ``args`` in the relation ``tuples``, as a bitmask: bit c is set when
    cell c of the atom's minor, the valuation with ``TupleCoding`` code c,
    codes a tuple of the relation."""
    coding = TupleCoding(d, len(args))
    codes = {coding.encode(t) for t in tuples}
    mask = 0
    for c, cell in enumerate(minor_cells(d, args, nv)):
        if cell in codes:
            mask |= 1 << c
    return mask


def _candidate_formulas(a: RelStructure, free: int, bounds: PPSearchBounds):
    """Semantically distinct candidate formulas with ``free`` free variables,
    ordered by (atom count, existential count, atom combination), each with
    its sorted satisfaction set.  Of the formulas with one satisfaction set,
    the first in this order is kept.

    No combination is evaluated.  For each existential count e, each pool
    atom's satisfaction set over all free + e variables is read once from
    its relation's minor (``_atom_mask``), as a bitmask over their
    d^(free+e) ``TupleCoding`` codes (first variable most significant),
    equality atoms from the diagonal's.  Since every atom is evaluated
    over all of the variables, a combination's satisfaction set over them is
    exactly the AND of its atoms' masks, and the full mask for no atoms.
    The existentials are the last e variables, so the free tuple with code
    f survives projection iff bits f*d^e .. (f+1)*d^e - 1 are not all zero.
    """
    d = a.size
    diagonal = [(v, v) for v in range(d)]
    free_tuples = list(itertools.product(range(d), repeat=free))
    seen = set()
    ordered = []
    pools = []
    for e in range(bounds.max_existentials + 1):
        nv = free + e
        pool = []  # (mask, relational atom, equality atom, mentions x_{nv-1})
        for name, ar in a.signature.rel_names:
            for args in itertools.product(range(nv), repeat=ar):
                pool.append((_atom_mask(d, nv, args, a.relations[name]),
                             (name, args), None, nv - 1 in args))
        for i in range(nv):
            for j in range(i + 1, nv):
                pool.append((_atom_mask(d, nv, (i, j), diagonal), None, (i, j), j == nv - 1))
        pools.append(pool)
    for natoms in range(bounds.max_atoms + 1):
        for e, pool in enumerate(pools):
            block = d**e
            full = (1 << d**(free + e)) - 1
            block_full = (1 << block) - 1
            for combo in itertools.combinations(pool, natoms):
                # skip formulas that do not mention their innermost
                # existential: an equivalent smaller-e candidate exists
                if e > 0 and not any(item[3] for item in combo):
                    continue
                mask = full
                for item in combo:
                    mask &= item[0]
                if e > 0:
                    projected = 0
                    for f in range(d**free):
                        if mask >> (f * block) & block_full:
                            projected |= 1 << f
                    mask = projected
                if mask in seen:
                    continue
                seen.add(mask)
                phi = PPFormula(free, e,
                                tuple(item[1] for item in combo if item[1] is not None),
                                tuple(item[2] for item in combo if item[2] is not None))
                sat = tuple(free_tuples[f]
                            for f, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1")
                ordered.append((natoms, phi, sat))
    return ordered


def bounded_pp_search(a: RelStructure, b: RelStructure, bounds: PPSearchBounds,
                      budget: SearchBudget | None = None) -> BoundedSearchResult:
    """Enumerate pp-power specs within bounds until one makes b
    homomorphically equivalent to the power.

    Picks (one candidate formula per relation of b) are tried in order of
    their total atom count, each with one ``hom_equivalent``.  Picks are
    pruned by prefix, exactly: once candidates for the first i relations are
    chosen, the partial power with those relations filled and the others
    empty must map to b, or no pick that extends the prefix can, since a
    map from the whole power to b is one from every partial power.  The
    surviving picks keep their order, so the first FOUND spec and its maps
    are those of the unpruned enumeration.

    A prefix is checked on a CSP that extends its parent prefix's: each
    candidate of each relation is compiled once per dimension, by
    ``hom_csp`` of the instance whose one relation holds its tuples, and a
    prefix's CSP is its parent's conjoined with the last pick's
    (``Csp.conjoin``), which equals the ``hom_csp`` of the partial power.
    A prefix's CSP is built only when its answer is not yet known, and only
    the CSPs of the last prefix checked are kept.

    The budget covers the whole search: ``node_limit`` counts the nodes of
    every prefix and pick search together, and every search and candidate
    list reads the budget's one deadline.  A REFUTED outcome means "no spec
    within these bounds", never a proof that b cannot be pp-constructed
    from a.  Reaching a dimension whose power exceeds ``DEFAULT_POWER_CAP``
    elements raises CapacityError.
    """
    budget = budget or SearchBudget()
    nodes_used = 0

    def spend(nodes: int, outcome: Outcome):
        nonlocal nodes_used
        nodes_used += nodes
        if budget.node_limit is not None and nodes_used > budget.node_limit:
            raise BudgetExceededError("node limit exceeded")
        if outcome is Outcome.BUDGET:
            raise BudgetExceededError("search budget exhausted")

    try:
        # a structure homomorphically equivalent to b has at least |core(b)|
        # elements, and every power of a has that many when |a| >= |b|
        least = core_of(b, budget).core.size if a.size < b.size else 1
        for dim in range(1, bounds.max_dimension + 1):
            dom = a.size**dim
            if dom > DEFAULT_POWER_CAP:
                raise CapacityError(f"pp-power domain {dom} exceeds cap {DEFAULT_POWER_CAP}")
            if dom < least:
                continue
            candidates = _encoded_candidates(a, b, dim, bounds, budget)
            if candidates is None:
                continue
            found = _search_dimension(dom, b, candidates, bounds, budget, spend)
            if found is not None:
                picks, power, eq = found
                spec = PPPowerSpec(dim, tuple(
                    (name, arity, item[1])
                    for (name, arity), item in zip(b.signature.rel_names, picks)))
                return BoundedSearchResult(Outcome.FOUND, bounds, spec, power,
                                           eq.forward, eq.backward)
    except BudgetExceededError:
        return BoundedSearchResult(Outcome.BUDGET, bounds)
    return BoundedSearchResult(Outcome.REFUTED, bounds)


def _search_dimension(dom: int, b: RelStructure, candidates, bounds: PPSearchBounds,
                      budget: SearchBudget, spend):
    """The first pick of ``candidates`` whose power on ``dom`` elements is
    homomorphically equivalent to b, as (picks, power, HomEqResult), or
    None.  The candidates' CSPs, the prefix CSPs and the prefix answers live
    in this call's frame, in no reference cycle, so they are freed when it
    returns."""
    deltas = [{} for _ in candidates]  # per relation, a CSP per candidate index
    path = []  # (candidate index, CSP) per pick of the last prefix checked

    def viable(idxs: tuple[int, ...]) -> bool:
        k = 0
        while k < min(len(path), len(idxs)) and path[k][0] == idxs[k]:
            k += 1
        del path[k:]
        for i in range(k, len(idxs)):
            delta = deltas[i].get(idxs[i])
            if delta is None:
                delta = deltas[i][idxs[i]] = hom_csp(
                    dom, {b.signature.rel_names[i][0]: candidates[i][idxs[i]][2]}, b)
            path.append((idxs[i], path[-1][1].conjoin(delta) if path else delta))
        res = _prefix_search(path[-1][1], b,
                             tuple(map(getitem, candidates, idxs)), budget)
        spend(res.nodes, res.outcome)
        return res.found

    memo = [{} for _ in candidates]  # prefix answers, by prefix length
    for total in range(bounds.max_atoms * len(candidates) + 1):
        for picks in _picks_with_total(candidates, total, viable, memo):
            power = _pick_power(dom, b, picks)
            eq = hom_equivalent(power, b, budget)
            spend(eq.nodes, eq.outcome)
            if eq.found:
                return picks, power, eq
    return None


def _prefix_search(csp: Csp, b: RelStructure, picks, budget: SearchBudget) -> HomResult:
    """Search ``csp``, whose solutions are the homomorphisms to b of the
    partial power of ``picks`` (``_pick_power``).  A map found is checked
    against every picked tuple."""
    outcome, sol = csp.solve(budget=budget)
    witness = None
    if outcome is Outcome.FOUND:
        witness = HomMap(csp.nvars, b.size, sol)
        for (name, _), item in zip(b.signature.rel_names, picks):
            target = b.tuple_set(name)
            if not all(tuple(map(sol.__getitem__, t)) in target for t in item[2]):
                raise CrossCheckError("prefix map is not a homomorphism")
    return HomResult(outcome, witness, csp.nodes_explored)


def _encoded_candidates(a: RelStructure, b: RelStructure, dim: int,
                        bounds: PPSearchBounds, budget: SearchBudget):
    """Per relation of b, its candidates (atom count, formula, tuples of the
    power) at dimension ``dim``; None when some relation has none.  The
    budget's deadline is checked before each candidate list is built."""
    coding = TupleCoding(a.size, dim)
    by_arity = {}  # relations of one arity share their candidate list
    candidates = []
    for name, arity in b.signature.rel_names:
        if arity not in by_arity:
            budget.check()
            by_arity[arity] = [
                (natoms, phi, tuple(
                    tuple(coding.encode(t[j * dim:(j + 1) * dim]) for j in range(arity))
                    for t in sat))
                for natoms, phi, sat in _candidate_formulas(a, arity * dim, bounds)]
        # a hom b -> power needs nonempty images for nonempty relations
        encoded = [c for c in by_arity[arity] if c[2] or not b.relations[name]]
        if not encoded:
            return None
        candidates.append(encoded)
    return candidates


def _pick_power(dom: int, b: RelStructure, picks) -> RelStructure:
    """The power on ``dom`` elements whose first relations of b hold the
    picked candidates' tuples, in order; the other relations are empty."""
    names = b.signature.names()
    rels = dict.fromkeys(names, ())
    rels.update(zip(names, (item[2] for item in picks)))
    return RelStructure(dom, b.signature, rels)


def _picks_with_total(candidates, total, viable, memo, i=0, code=0, idxs=()):
    """All ways to pick one candidate per relation with atom counts summing
    to ``total``, in lexicographic order of candidate indices, below the
    first ``i`` picks ``idxs``.

    A prefix of 1 <= i < n picks is extended only if ``viable(idxs)``, its
    candidate indices.  Its answer is kept in ``memo[i]``, keyed by those
    indices read as one mixed-radix integer ``code``, so that every total
    asks about each prefix at most once.
    """
    if i == len(candidates):
        if total == 0:
            yield tuple(map(getitem, candidates, idxs))
        return
    if i:
        ok = memo[i].get(code)
        if ok is None:
            ok = memo[i][code] = viable(idxs)
        if not ok:
            return
    radix = len(candidates[i])
    for idx, item in enumerate(candidates[i]):
        if item[0] <= total:
            yield from _picks_with_total(candidates, total - item[0], viable, memo,
                                         i + 1, code * radix + idx, idxs + (idx,))


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
