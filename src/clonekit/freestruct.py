"""Free structures, lifted relations, colorings, and h1-homomorphism tests.

The free structure of a clone over a structure B has as carrier the
closure of the B-indexed projections under the clone's componentwise
action (equivalently, for a clone given as Pol(A), all |B|-ary
polymorphisms).  Each relation R of B lifts to the closure of its
generator tuples under the same action.  A coloring is a homomorphism
from the lifted structure back to B, so coloring search reuses the
homomorphism engine with the lifted structure as source; strong colorings
pin the generators to their own indices.

For Pol(A), lifted relations and induced operations are reflections
through A^N, N = |A|^|B|, along the projections of B and then the carrier
index or a coloring (``clones._reflect``).  Each reads only some cells, so
the h1 oracle reflects the distinct restrictions of Pol_n(A) to them,
enumerated by projection, each (arity, cells) pair searched once per
decision.  Only the carrier is all of Pol_|B|(A).

For a generated clone, the closure kernel of ``clones`` computes both the
carrier (``generate_to_arity``) and the lifted relations: there each
generator acts on tuples of carrier indices through its Cayley table over
the carrier, built once per free structure.  Whenever a generator's cell
codes fit in a byte, at any domain size, a row of that table is filled by
big-integer addition and one byte translation per result, and each result
is found among the carrier by its cells read as one byte string.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import clones
from .clones import (
    DEFAULT_TABLE_CAP,
    _CLOCK_EVERY,
    CloneGenSet,
    OperationTable,
    OpSearchResult,
    _closure_of_tuples,
    _reflect,
    all_polymorphisms,
    generate_to_arity,
    has_siggers,
    is_polymorphism,
    minor_cells,
    polymorphism_restrictions,
    projection,
)
from .homs import find_homomorphism
from .search import BudgetExceededError, CrossCheckError, Outcome, SearchBudget
from .structures import CapacityError, RelStructure, shifted_codes


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


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _cayley(g: OperationTable, tables, index, budget: SearchBudget | None):
    """Cayley table of ``g`` over the carrier: ``rows[h][j]`` is the carrier
    index of g applied to the head arguments whose carrier indices, read as
    base-|F| digits, give h, and to carrier element j last.  Filled lazily
    from a memo when its |F|^arity cells exceed ``clones._DENSE_CELLS``,
    otherwise whole; both fill a row through one ``cells(head)``.

    When g's d^arity cells fit in a byte, a table is one big-endian integer
    of byte cells.  A row's head code, d times the code of the head
    arguments' cells, is read the same way and added to each carrier
    integer; no cell carries, as each stays below d^arity.  Translating the
    sum's bytes through g's table gives the result's cells, which are found
    among the carrier's by their bytes.  Otherwise a result is found cell by
    cell.  A result outside the carrier raises KeyError.  The budget's
    deadline is read once per row."""
    d, n, f, width = g.domain_size, g.arity, len(tables), len(tables[0])
    if d**n <= 256:
        keys = {bytes(t): i for t, i in index.items()}
        numbers = [int.from_bytes(bytes(t), "big") for t in tables]
        translation = bytes(g.table).ljust(256, b"\0")

        def row(codes):
            code = int.from_bytes(bytes(codes), "big")
            return lambda j: keys[(code + numbers[j]).to_bytes(width, "big").translate(translation)]
    else:
        look = g.table.__getitem__

        def row(codes):
            return lambda j: index[tuple(map(look, map(add, codes, tables[j])))]

    def cells(head):  # the row of these head arguments, as a function of j
        if budget:
            budget.check()
        return row(shifted_codes(d, [tables[i] for i in head], width))

    if f**n > clones._DENSE_CELLS:
        return _Memo(lambda h: _Memo(cells([h // f**p % f for p in range(n - 2, -1, -1)])))
    return [list(map(cells(head), range(f)))
            for head in itertools.product(range(f), repeat=n - 1)]


def free_structure(gen: CloneGenSet, b: RelStructure,
                   budget: SearchBudget | None = None) -> FreeStructure:
    """Free structure of a generated clone over b, computed to fixpoint.
    Every closure reads the budget's deadline; past it BudgetExceededError
    is raised."""
    d = gen.domain_size
    nb = b.size
    carrier = generate_to_arity(gen, nb, budget)
    index = {op.table: i for i, op in enumerate(carrier)}
    gen_index = tuple(index[minor_cells(d, (v,), nb)] for v in range(nb))
    acting = gen.acting()
    tables = [op.table for op in carrier]
    cayleys = [_cayley(g, tables, index, budget) for g in acting]
    lifted = {}
    for name, _ in b.signature.rel_names:
        seeds = [tuple(gen_index[v] for v in t) for t in b.relations[name]]
        lifted[name] = _closure_of_tuples(seeds, acting, cayleys, len(carrier), d, budget)
    return FreeStructure(d, b, carrier, gen_index, lifted, "generators")


def _restrictions_by_cells(a: RelStructure, budget: SearchBudget | None) -> dict:
    """(arity n, cells) -> the distinct restrictions of Pol_n(a) to those
    cells, sorted (``polymorphism_restrictions``), each searched on first
    use."""
    return _Memo(lambda key: list(polymorphism_restrictions(a, *key, budget)))


def free_structure_over_polymorphisms(a: RelStructure, b: RelStructure,
                                      budget: SearchBudget | None = None,
                                      restrictions: dict | None = None) -> FreeStructure:
    """Free structure of Pol(a) over b.

    The carrier is every |B|-ary polymorphism.  A lifted relation with m
    tuples is Pol_m(a) reflected into the carrier at the relation's
    columns, since the closure of the generator tuples under a
    composition-closed clone is reached in one application.  The reflection
    reads only some cells, so it reflects the distinct restrictions of
    Pol_m(a) to the union of those cells, one lifted tuple each.
    ``restrictions``, from ``_restrictions_by_cells(a, ...)``, shares those
    searches with the caller; it changes no result.
    """
    d = a.size
    nb = b.size
    if d**nb > DEFAULT_TABLE_CAP:
        raise CapacityError(
            f"carrier elements need {d**nb} cells, over cap {DEFAULT_TABLE_CAP}")
    if restrictions is None:
        restrictions = _restrictions_by_cells(a, budget)
    carrier = tuple(OperationTable(d, nb, t) for t in restrictions[nb, tuple(range(d**nb))])
    index = {op.table: i for i, op in enumerate(carrier)}
    projections = [minor_cells(d, (v,), nb) for v in range(nb)]
    gen_index = tuple(map(index.__getitem__, projections))
    lifted = {}
    for name, _ in b.signature.rel_names:
        rows = b.relations[name]
        m = len(rows)
        if m == 0:
            lifted[name] = ()
            continue
        if d**m > DEFAULT_TABLE_CAP:
            raise CapacityError(f"lifting {name!r} needs arity-{m} polymorphisms, "
                                f"over cap {DEFAULT_TABLE_CAP}")
        lifted[name] = tuple(sorted(_reflect(
            d, projections, index, [(m, lambda cells: restrictions[m, cells])], budget,
            columns=list(zip(*rows)))))
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
                           budget: SearchBudget | None = None) -> list[OperationTable]:
    """Members of arity 1..max_arity of a generated clone or of Pol(A)."""
    out = []
    for n in range(1, max_arity + 1):
        if isinstance(gen_or_structure, CloneGenSet):
            out.extend(generate_to_arity(gen_or_structure, n, budget))
        else:
            out.extend(all_polymorphisms(gen_or_structure, n, budget))
    return out


def induced_operations(free: FreeStructure, coloring: Coloring, members: list[OperationTable],
                       budget: SearchBudget | None = None) -> list[OperationTable]:
    """The operations on B induced by a coloring: f'(b1..bn) = c(f(pi_b1..pi_bn)),
    each member reflected along the projections of B and the coloring.

    This is the constructive content of the coloring-to-h1-homomorphism
    direction; each induced operation should be a polymorphism of B.
    Constants are skipped: they enter the carrier as constant tables.
    """
    members = [f for f in members if f.arity]
    h1 = [free.carrier[i].table for i in free.gen_index]
    h2 = {t: coloring.map[i] for t, i in free.carrier_index().items()}
    tables = _reflect(free.domain_size, h1, h2,
                      [(f.arity, lambda _, f=f: (f.table,)) for f in members], budget)
    return [OperationTable(free.b.size, f.arity, t) for f, t in zip(members, tables)]


@dataclass(frozen=True)
class H1Result:
    outcome: Outcome
    free: FreeStructure | None = None
    coloring: Coloring | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.outcome is Outcome.FOUND


def h1_homomorphism_exists(a: RelStructure, b: RelStructure,
                           budget: SearchBudget | None = None) -> H1Result:
    """Does an h1 clone homomorphism Pol(a) -> Pol(b) exist?

    Decided as: Pol(a) is b-colorable.  On success every operation induced
    from a member of arity 1..3 is re-verified to be a polymorphism of b,
    each distinct table once, reflected from restrictions of Pol_n(a); the list
    per member is left to ``induced_operations``.  Each (arity, cells)
    restriction that the lifting and the check read is searched once.  The
    budget's deadline bounds the whole decision, and a budget that runs out
    anywhere in it returns BUDGET.
    """
    restrictions = _restrictions_by_cells(a, budget)
    try:
        free = free_structure_over_polymorphisms(a, b, budget, restrictions)
        res = find_coloring(free, strong=False, budget=budget)
        if res.outcome is not Outcome.FOUND:
            return H1Result(res.outcome, free, nodes=res.nodes)
        h1 = [free.carrier[i].table for i in free.gen_index]
        h2 = {t: res.coloring.map[i] for t, i in free.carrier_index().items()}
        induced = {OperationTable(b.size, n, t) for n in range(1, 4)
                   for t in _reflect(a.size, h1, h2, [(n, lambda cells: restrictions[n, cells])],
                                     budget)}
        for i, op in enumerate(induced):
            if budget and i % _CLOCK_EVERY == 0:
                budget.check()
            if not is_polymorphism(op, b):
                raise CrossCheckError("induced operation is not a polymorphism")
    except BudgetExceededError:
        return H1Result(Outcome.BUDGET)
    return H1Result(Outcome.FOUND, free, res.coloring, res.nodes)


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


def h1_to_projections(a: RelStructure,
                      budget: SearchBudget | None = None) -> ProjectionHomResult:
    """Decide h1-homomorphism-to-projections existence two independent ways.

    Oracle (a): the homomorphism exists iff no Siggers operation exists.
    Oracle (b): coloring by the runtime-validated projection-test structure.
    Disagreement between conclusive oracles raises CrossCheckError.
    """
    sig = has_siggers(a, budget)
    col = h1_homomorphism_exists(a, _validated_projection_test(), budget)
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
