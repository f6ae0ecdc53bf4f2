"""Free structures, lifted relations, colorings, and h1-homomorphism tests.

The free structure of a clone over a structure B has as carrier the
closure of the B-indexed projections under the clone's componentwise
action (equivalently, for a clone given as Pol(A), all |B|-ary
polymorphisms).  Each relation R of B lifts to the closure of its
generator tuples under the same action.  A coloring is a homomorphism
from the lifted structure back to B, so coloring search reuses the
homomorphism engine with the lifted structure as source; strong colorings
pin the generators to their own indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .clones import (
    DEFAULT_TABLE_CAP,
    CloneGenSet,
    OperationTable,
    OpSearchResult,
    all_polymorphisms,
    compose,
    generate_to_arity,
    has_siggers,
    is_polymorphism,
    projection,
)
from .homs import find_homomorphism
from .search import BudgetExceededError, CrossCheckError, Outcome, SearchBudget
from .structures import CapacityError, RelStructure


@dataclass(frozen=True)
class FreeStructure:
    """Carrier F(B) with one lifted relation per relation of B.

    ``carrier`` holds |B|-ary operations over the clone's domain; the
    B-indexed projections sit at ``gen_index``.  ``lifted`` maps each
    relation name to tuples of carrier indices.
    """

    domain_size: int            # of the clone's domain A
    b: RelStructure
    carrier: tuple[OperationTable, ...]
    gen_index: tuple[int, ...]  # position of the projection for each b in B
    lifted: dict[str, tuple[tuple[int, ...], ...]]
    source: str                 # "generators" or "polymorphisms"

    def carrier_index(self) -> dict[tuple[int, ...], int]:
        return {op.table: i for i, op in enumerate(self.carrier)}

    def lifted_structure(self) -> RelStructure:
        return RelStructure(len(self.carrier), self.b.signature, self.lifted)


@dataclass(frozen=True)
class Coloring:
    """A map carrier -> B sending every lifted tuple into its relation."""

    map: tuple[int, ...]
    strong: bool


def verify_coloring(free: FreeStructure, coloring: Coloring) -> bool:
    """Independent check of the coloring conditions."""
    c = coloring.map
    if len(c) != len(free.carrier):
        return False
    for name, _ in free.b.signature.rel_names:
        rel = free.b.tuple_set(name)
        for t in free.lifted[name]:
            if tuple(c[i] for i in t) not in rel:
                return False
    if coloring.strong:
        for b, idx in enumerate(free.gen_index):
            if c[idx] != b:
                return False
    return True


def _closure_of_tuples(seeds, carrier, index, generators):
    """Close a set of carrier-index tuples under the componentwise action
    of the generators.

    On a two-element domain a k-tuple of tables packs into one integer and
    any generator acts by a fixed bitwise formula, so binary generators can
    be combined with the whole set through vectorized outer products.  The
    generic path caches compositions at the carrier-index level.
    """
    seeds = sorted(set(seeds))
    if not seeds:
        return ()
    k = len(seeds[0])
    width = len(carrier[0].table)
    d = carrier[0].domain_size
    if d == 2 and k * width <= 64:
        return _closure_packed(seeds, carrier, index, generators, k, width)
    return _closure_generic(seeds, carrier, index, generators)


def _packed_apply(g: OperationTable, args: list, full):
    """Apply a Boolean operation to packed table fields, bitwise.

    ``args`` may be ints or numpy arrays; the result has the same type.
    g(x_1..x_n) = OR over rows a with g(a)=1 of AND_i (x_i or its complement).
    """
    res = None
    for code, out in enumerate(g.table):
        if not out:
            continue
        term = None
        for i in range(g.arity):
            a_i = code >> (g.arity - 1 - i) & 1
            x = args[i] if a_i else args[i] ^ full
            term = x if term is None else term & x
        if term is None:  # 0-ary constant-1
            term = full
        res = term if res is None else res | term
    if res is None:
        return args[0] ^ args[0] if hasattr(args[0], "shape") else 0
    return res


def _closure_packed(seeds, carrier, index, generators, k, width):
    import numpy as np

    bits = [sum(bit << i for i, bit in enumerate(op.table)) for op in carrier]
    bit_index = {v: i for i, v in enumerate(bits)}
    full_int = (1 << (k * width)) - 1
    full = np.uint64(full_int)

    def pack(t):
        p = 0
        for j in range(k):
            p = p << width | bits[t[j]]
        return p

    current = np.unique(np.array([pack(t) for t in seeds], dtype=np.uint64))
    frontier = current.copy()
    binary = [g for g in generators if g.arity == 2]
    other = [g for g in generators if g.arity not in (0, 2)]
    # frontier rows per outer product: 64 x a few thousand packed tuples keeps
    # each temporary under 4 MB, so peak memory stays low wherever the
    # allocator places the temporaries
    chunk = 64
    while frontier.size:
        if current.size > DEFAULT_TABLE_CAP:
            raise CapacityError("lifted relation exceeds the size cap")
        cands = []
        for g in binary:
            for i in range(0, frontier.size, chunk):
                blk = frontier[i:i + chunk][:, None]
                rest = current[None, :]
                # dedup each block immediately to keep memory flat
                cands.append(np.unique(_packed_apply(g, [blk, rest], full)))
                cands.append(np.unique(_packed_apply(g, [rest, blk], full)))
        if other:
            cur_list = [int(v) for v in current]
            fro = {int(v) for v in frontier}
            extra = set()
            for g in other:
                for combo in itertools.product(cur_list, repeat=g.arity):
                    if not any(c in fro for c in combo):
                        continue
                    extra.add(_packed_apply(g, list(combo), full_int))
            if extra:
                cands.append(np.fromiter(extra, dtype=np.uint64, count=len(extra)))
        if not cands:
            break
        cand = np.unique(np.concatenate(cands))
        frontier = cand[np.isin(cand, current, assume_unique=True, invert=True)]
        current = np.union1d(current, frontier)
    mask = (1 << width) - 1
    out = []
    for p in current:
        p = int(p)
        out.append(tuple(bit_index[(p >> (width * (k - 1 - j))) & mask]
                         for j in range(k)))
    return tuple(sorted(out))


def _closure_generic(seeds, carrier, index, generators):
    act_cache: dict = {}

    def act(gi, g, cols):
        key = (gi, cols)
        got = act_cache.get(key)
        if got is None:
            got = index[compose(g, tuple(carrier[i] for i in cols)).table]
            act_cache[key] = got
        return got

    k = len(seeds[0])
    seen = set(seeds)
    frontier = list(seen)
    gens = [(gi, g) for gi, g in enumerate(generators) if g.arity > 0]
    while frontier:
        if len(seen) > DEFAULT_TABLE_CAP:
            raise CapacityError("lifted relation exceeds the size cap")
        frontier_set = set(frontier)
        old = [t for t in seen if t not in frontier_set]
        new = []
        for gi, g in gens:
            n = g.arity
            # every n-combo that touches the frontier at least once
            for pattern in itertools.product((0, 1), repeat=n):
                if not any(pattern):
                    continue
                pools = [frontier if p else old for p in pattern]
                for combo in itertools.product(*pools):
                    t = tuple(
                        act(gi, g, tuple(combo[i][j] for i in range(n)))
                        for j in range(k)
                    )
                    if t not in seen:
                        seen.add(t)
                        new.append(t)
        frontier = new
    return tuple(sorted(seen))


def free_structure(gen: CloneGenSet, b: RelStructure,
                   budget: SearchBudget | None = None,
                   cap: int = DEFAULT_TABLE_CAP) -> FreeStructure:
    """Free structure of a generated clone over b, computed to fixpoint."""
    d = gen.domain_size
    nb = b.size
    if d**nb > cap:
        raise CapacityError(f"carrier elements need {d**nb} cells, over cap {cap}")
    carrier = generate_to_arity(gen, nb, budget, cap)
    index = {op.table: i for i, op in enumerate(carrier)}
    gen_index = tuple(index[projection(d, nb, v + 1).table] for v in range(nb))
    # a 0-ary generator acts on tuples like its unary constant
    acting = tuple(g if g.arity else OperationTable(d, 1, (g.table[0],) * d)
                   for g in gen.generators)
    lifted = {}
    for name, _ in b.signature.rel_names:
        seeds = [tuple(gen_index[v] for v in t) for t in b.relations[name]]
        lifted[name] = _closure_of_tuples(seeds, carrier, index, acting)
    return FreeStructure(d, b, carrier, gen_index, lifted, "generators")


def free_structure_over_polymorphisms(a: RelStructure, b: RelStructure,
                                      budget: SearchBudget | None = None,
                                      cap: int = DEFAULT_TABLE_CAP) -> FreeStructure:
    """Free structure of Pol(a) over b.

    The carrier is every |B|-ary polymorphism.  A lifted relation with m
    tuples is the image of Pol_m(a) under per-column minoring, since the
    closure of the generator tuples under a composition-closed clone is
    reached in one application.
    """
    d = a.size
    nb = b.size
    if d**nb > cap:
        raise CapacityError(f"carrier elements need {d**nb} cells, over cap {cap}")
    carrier = tuple(all_polymorphisms(a, nb, budget, cap))
    index = {op.table: i for i, op in enumerate(carrier)}
    gen_index = tuple(index[projection(d, nb, v + 1).table] for v in range(nb))
    dom_codes = list(itertools.product(range(d), repeat=nb))
    lifted = {}
    for name, k in b.signature.rel_names:
        rows = b.relations[name]
        m = len(rows)
        if m == 0:
            lifted[name] = ()
            continue
        if d**m > cap:
            raise CapacityError(
                f"lifting {name!r} needs arity-{m} polymorphisms, over cap {cap}")
        out = set()
        for f in all_polymorphisms(a, m, budget, cap):
            ft = f.table
            entry = []
            for j in range(k):
                col = tuple(row[j] for row in rows)
                tab = []
                for vec in dom_codes:
                    idx = 0
                    for i in col:
                        idx = idx * d + vec[i]
                    tab.append(ft[idx])
                entry.append(index[tuple(tab)])
            out.add(tuple(entry))
        lifted[name] = tuple(sorted(out))
    return FreeStructure(d, b, carrier, gen_index, lifted, "polymorphisms")


@dataclass(frozen=True)
class ColoringResult:
    outcome: Outcome
    coloring: Coloring | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def find_coloring(free: FreeStructure, strong: bool = False,
                  budget: SearchBudget | None = None) -> ColoringResult:
    """Search for a (strong) coloring of the free structure by its B."""
    lifted = free.lifted_structure()
    pins = {idx: v for v, idx in enumerate(free.gen_index)} if strong else None
    res = find_homomorphism(lifted, free.b, budget, pins=pins)
    if res.outcome is not Outcome.FOUND:
        return ColoringResult(res.outcome, nodes=res.nodes)
    coloring = Coloring(res.witness.map, strong)
    if not verify_coloring(free, coloring):
        raise CrossCheckError("found map is not a coloring")
    return ColoringResult(Outcome.FOUND, coloring, res.nodes)


def clone_members_to_arity(gen_or_structure, max_arity: int,
                           budget: SearchBudget | None = None,
                           cap: int = DEFAULT_TABLE_CAP) -> list[OperationTable]:
    """Members of arity 1..max_arity of a generated clone or of Pol(A)."""
    out = []
    for n in range(1, max_arity + 1):
        if isinstance(gen_or_structure, CloneGenSet):
            out.extend(generate_to_arity(gen_or_structure, n, budget, cap))
        else:
            out.extend(all_polymorphisms(gen_or_structure, n, budget, cap))
    return out


def induced_operations(free: FreeStructure, coloring: Coloring,
                       members: list[OperationTable]) -> list[OperationTable]:
    """The operations on B induced by a coloring: f'(b1..bn) = c(f(pi_b1..pi_bn)).

    This is the constructive content of the coloring-to-h1-homomorphism
    direction; each induced operation should be a polymorphism of B.
    """
    d = free.domain_size
    nb = free.b.size
    index = free.carrier_index()
    out = []
    for f in members:
        if f.arity == 0:
            continue  # constants enter the carrier as constant tables
        table = []
        for bs in itertools.product(range(nb), repeat=f.arity):
            g = compose(f, [projection(d, nb, v + 1) for v in bs])
            table.append(coloring.map[index[g.table]])
        out.append(OperationTable(nb, f.arity, tuple(table)))
    return out


@dataclass(frozen=True)
class H1Result:
    outcome: Outcome
    free: FreeStructure | None = None
    coloring: Coloring | None = None
    induced: tuple[OperationTable, ...] = ()
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def h1_homomorphism_exists(a: RelStructure, b: RelStructure,
                           budget: SearchBudget | None = None,
                           cap: int = DEFAULT_TABLE_CAP,
                           induce_arity: int = 3) -> H1Result:
    """Does an h1 clone homomorphism Pol(a) -> Pol(b) exist?

    Decided as: Pol(a) is b-colorable.  On success the induced image
    operations up to ``induce_arity`` are materialized and re-verified to
    be polymorphisms of b.
    """
    free = free_structure_over_polymorphisms(a, b, budget, cap)
    res = find_coloring(free, strong=False, budget=budget)
    if res.outcome is not Outcome.FOUND:
        return H1Result(res.outcome, free, nodes=res.nodes)
    members = clone_members_to_arity(a, induce_arity, budget, cap)
    induced = tuple(induced_operations(free, res.coloring, members))
    for op in induced:
        if not is_polymorphism(op, b):
            raise CrossCheckError("induced operation is not a polymorphism")
    return H1Result(Outcome.FOUND, free, res.coloring, induced, res.nodes)


# ---------------------------------------------------------------------------
# The projection-clone test
# ---------------------------------------------------------------------------

def projection_test_structure() -> RelStructure:
    """A two-element structure whose polymorphisms are (at low arity,
    verified at runtime) exactly the projections: positive 1-in-3
    triples plus both singletons."""
    return RelStructure.make(2, {
        "one_in_three": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        "zero": [(0,)],
        "one": [(1,)],
    })


@lru_cache(maxsize=1)
def _validated_projection_test() -> RelStructure:
    t = projection_test_structure()
    for n in range(1, 4):
        polys = all_polymorphisms(t, n)
        projs = sorted((projection(2, n, i + 1) for i in range(n)),
                       key=OperationTable.sort_key)
        if list(polys) != projs:
            raise CrossCheckError(
                "projection-test structure has unexpected polymorphisms "
                f"at arity {n}")
    return t


@dataclass(frozen=True)
class ProjectionHomResult:
    """Existence of an h1 clone homomorphism Pol(a) -> projections.

    ``outcome`` FOUND means the homomorphism exists (hardness witness);
    REFUTED means it provably does not (a Siggers table certifies this);
    BUDGET means at least one oracle ran out of budget.
    """

    outcome: Outcome
    siggers: OpSearchResult | None = None
    coloring: H1Result | None = None

    @property
    def exists(self) -> bool:
        return self.outcome is Outcome.FOUND


def h1_to_projections(a: RelStructure, budget: SearchBudget | None = None,
                      cap: int = DEFAULT_TABLE_CAP) -> ProjectionHomResult:
    """Decide h1-homomorphism-to-projections existence two independent ways.

    Oracle (a): the homomorphism exists iff no Siggers operation exists.
    Oracle (b): coloring by the runtime-validated projection-test structure.
    Disagreement between conclusive oracles raises CrossCheckError.
    """
    sig = has_siggers(a, budget)
    t = _validated_projection_test()
    try:
        col = h1_homomorphism_exists(a, t, budget, cap)
    except BudgetExceededError:
        col = H1Result(Outcome.BUDGET)
    if sig.outcome is Outcome.BUDGET or col.outcome is Outcome.BUDGET:
        return ProjectionHomResult(Outcome.BUDGET, sig, col)
    by_siggers = sig.outcome is Outcome.REFUTED
    by_coloring = col.outcome is Outcome.FOUND
    if by_siggers != by_coloring:
        raise CrossCheckError(
            "Siggers oracle and coloring oracle disagree on "
            f"h1-to-projections: siggers={sig.outcome}, coloring={col.outcome}")
    return ProjectionHomResult(
        Outcome.FOUND if by_coloring else Outcome.REFUTED, sig, col)
