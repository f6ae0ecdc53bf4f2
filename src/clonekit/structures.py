"""Finite relational structures with bit-exact serialization.

Domains are always {0, ..., size-1}; named elements exist only in input
files.  Relations are kept in canonical (lexicographically sorted) order so
that equal structures serialize identically, and a frozenset per relation
backs the membership tests that dominate search.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

# Powers above this many domain elements are refused rather than built;
# callers should switch to implicit/product-aware search instead.
DEFAULT_POWER_CAP = 10**6


class StructureError(ValueError):
    """Invalid structure data (arity mismatch, out-of-range element, ...)."""


class ParseError(StructureError):
    """Malformed structure text; carries a position when known."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class CapacityError(RuntimeError):
    """A requested construction exceeds the configured size limits."""


@dataclass(frozen=True)
class TupleCoding:
    """Lexicographic bijection between {0..base-1}^length and one integer.

    The first coordinate is the most significant digit, so decode(0) is the
    all-zero vector and codes enumerate vectors in lexicographic order.
    """

    base: int
    length: int

    def __post_init__(self):
        if self.base < 1 or self.length < 0:
            raise ValueError("base must be >= 1 and length >= 0")

    @property
    def count(self) -> int:
        return self.base**self.length

    def encode(self, vec: Sequence[int]) -> int:
        if len(vec) != self.length:
            raise ValueError(f"expected vector of length {self.length}")
        code = 0
        for v in vec:
            if not 0 <= v < self.base:
                raise ValueError(f"entry {v} out of range for base {self.base}")
            code = code * self.base + v
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        if not 0 <= code < self.count:
            raise ValueError(f"code {code} out of range")
        out = [0] * self.length
        for i in range(self.length - 1, -1, -1):
            code, out[i] = divmod(code, self.base)
        return tuple(out)


def shifted_codes(d: int, tables: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """Per cell, d times the code of the argument vector read from ``tables``
    (first table most significant).  Adding one more table's cell gives the
    code with that table as the last argument; with no tables it is all 0."""
    codes = (0,) * width
    for t in tables:
        codes = tuple(map(mul, map(add, codes, t), repeat(d)))
    return codes


def column_cells(d: int, sel: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The table cells an operation reads when it is applied column-wise to
    the ``k``-tuples of ``sel``: cell j codes (t[j] for t in sel)."""
    if not sel:
        return (0,) * k
    *head, last = sel
    return tuple(map(add, shifted_codes(d, head, k), last))


def selection_columns(d: int, rows: Sequence[Sequence[int]], k: int,
                      n: int) -> Iterator[list[list[int]]]:
    """``column_cells(d, sel, k)`` for every selection ``sel`` of ``n`` of
    the ``k``-tuples ``rows``, in ``itertools.product`` order, by columns:
    one block per leading row, in order, holding the k columns of cell
    codes of the selections that start with that row (column j lists cell
    j of each selection).  The codes of the other n - 1 rows are built
    once, and each block adds its leading row's digits to them, so only one
    block of |rows|**(n-1) selections is held at a time.  With n = 0 the one
    block is that of the empty selection."""
    if n == 0:
        yield [[0] for _ in range(k)]
        return
    digits = [[t[j] for t in rows] for j in range(k)]
    rest = [[0] for _ in range(k)]
    for _ in range(n - 1):
        rest = [[c * d + v for c in col for v in vals] for col, vals in zip(rest, digits)]
    scale = d**(n - 1)
    for t0 in rows:
        yield [[base + c for c in col] for base, col in zip([v * scale for v in t0], rest)]


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) pairs with unique names, arities >= 1."""

    rel_names: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.rel_names:
            if not name:
                raise StructureError("empty relation name")
            if name in seen:
                raise StructureError(f"duplicate relation name {name!r}")
            if arity < 1:
                raise StructureError(f"relation {name!r} has arity {arity} < 1")
            seen.add(name)

    @staticmethod
    def of(pairs: Iterable[tuple[str, int]]) -> "Signature":
        return Signature(tuple((str(n), int(a)) for n, a in pairs))

    def arity(self, name: str) -> int:
        for n, a in self.rel_names:
            if n == name:
                return a
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.rel_names)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.rel_names)


@dataclass(frozen=True)
class RelStructure:
    """A finite relational structure on domain {0..size-1}.

    ``relations`` maps each signature symbol to its canonically sorted tuple
    set.  Instances are immutable and safe to share across threads; the one
    mutable field, ``_csp_forms``, is a cache of compiled CSP forms of the
    relations over this domain, filled lazily by ``homs.hom_csp``, the one
    builder of every CSP that targets the structure; the forms are pure
    functions of the relations and never change once stored.
    """

    size: int
    signature: Signature
    relations: Mapping[str, tuple[tuple[int, ...], ...]]
    _sets: Mapping[str, frozenset] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    # compiled CSP forms of each relation over this domain, by equality
    # pattern; filled by homs.hom_csp alone
    _csp_forms: dict[str, dict] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        if self.size < 1:
            raise StructureError(f"size must be positive, got {self.size}")
        if set(self.relations) != set(self.signature.names()):
            raise StructureError("relations do not match signature symbols")
        canon = {}
        sets = {}
        for name, arity in self.signature.rel_names:
            tuples = [tuple(t) for t in self.relations[name]]
            values = list(itertools.chain.from_iterable(tuples))
            if (set(map(len, tuples)) - {arity}
                    or values and (min(values) < 0 or max(values) >= self.size)):
                self._reject(name, arity, tuples)
            as_set = frozenset(tuples)
            if len(as_set) != len(tuples):
                raise StructureError(f"relation {name!r}: duplicate tuples")
            canon[name] = tuple(sorted(tuples))
            sets[name] = as_set
        object.__setattr__(self, "relations", canon)
        object.__setattr__(self, "_sets", sets)
        object.__setattr__(self, "_csp_forms", {})

    def _reject(self, name: str, arity: int, tuples):
        """Raise for the first tuple of ``name`` with a wrong arity or an
        element out of range."""
        for t in tuples:
            if len(t) != arity:
                raise StructureError(
                    f"relation {name!r}: tuple {t} has arity {len(t)}, expected {arity}"
                )
            for v in t:
                if not 0 <= v < self.size:
                    raise StructureError(
                        f"relation {name!r}: element {v} out of range for size {self.size}"
                    )

    @staticmethod
    def make(size: int, rels: Mapping[str, Iterable[Sequence[int]]],
             arities: Mapping[str, int] | None = None) -> "RelStructure":
        """Build a structure, inferring arities from tuples when possible.

        Empty relations need an explicit entry in ``arities``.
        """
        pairs = []
        data = {}
        for name in rels:
            tuples = [tuple(t) for t in rels[name]]
            if tuples:
                arity = len(tuples[0])
            elif arities and name in arities:
                arity = arities[name]
            else:
                raise StructureError(f"cannot infer arity of empty relation {name!r}")
            pairs.append((name, arity))
            data[name] = tuples
        return RelStructure(size, Signature.of(pairs), data)

    def tuple_set(self, name: str) -> frozenset:
        return self._sets[name]

    def induced(self, subset: Sequence[int]) -> "RelStructure":
        """Induced substructure on ``subset``, re-indexed to {0..len-1}.

        ``subset`` must be strictly increasing.
        """
        sub = list(subset)
        if sub != sorted(set(sub)) or not sub:
            raise StructureError("subset must be nonempty, sorted and duplicate-free")
        if sub[-1] >= self.size:
            raise StructureError("subset element out of range")
        index = {v: i for i, v in enumerate(sub)}
        keep = set(sub)
        rels = {}
        for name, _ in self.signature.rel_names:
            rels[name] = [
                tuple(index[v] for v in t)
                for t in self.relations[name]
                if all(v in keep for v in t)
            ]
        return RelStructure(len(sub), self.signature, rels)


# ---------------------------------------------------------------------------
# Serialization.  Two surface syntaxes parse to the same canonical form:
#   JSON:    {"size": N, "relations": {"name/arity": [[...], ...]}}
#   compact: size N; R/k = {(a,b),(c,d)}; S/1 = {};
# ---------------------------------------------------------------------------

def _parse_rel_key(key: str) -> tuple[str, int]:
    if "/" not in key:
        raise ParseError(f"relation key {key!r} must be of the form name/arity")
    name, _, arity_s = key.rpartition("/")
    try:
        arity = int(arity_s)
    except ValueError:
        raise ParseError(f"bad arity in relation key {key!r}") from None
    return name, arity


def structure_to_dict(a: RelStructure) -> dict:
    """Canonical JSON-ready form; inverse of the dict branch of parsing."""
    rels = {}
    for name, arity in a.signature.rel_names:
        rels[f"{name}/{arity}"] = [list(t) for t in a.relations[name]]
    return {"size": a.size, "relations": rels}


def structure_from_dict(obj) -> RelStructure:
    if not isinstance(obj, dict):
        raise ParseError("structure JSON must be an object")
    try:
        size = int(obj["size"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("missing or bad 'size'") from None
    raw = obj.get("relations", {})
    if not isinstance(raw, dict):
        raise ParseError("'relations' must be an object")
    pairs = []
    rels = {}
    for key in raw:
        name, arity = _parse_rel_key(key)
        tuples = raw[key]
        if not isinstance(tuples, list):
            raise ParseError(f"relation {key!r}: tuples must be a list")
        parsed = []
        for t in tuples:
            if not isinstance(t, list) or not all(isinstance(v, int) for v in t):
                raise ParseError(f"relation {key!r}: tuple {t!r} is not a list of ints")
            parsed.append(tuple(t))
        pairs.append((name, arity))
        rels[name] = parsed
    return RelStructure(size, Signature.of(pairs), rels)


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace, '\\n'-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_structure(a: RelStructure) -> str:
    return canonical_json(structure_to_dict(a))


class _CompactParser:
    """Recursive-descent parser for the compact grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def word(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            self.error("expected identifier")
        self.pos += m.end()
        return m.group(0)

    def number(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            self.error("expected number")
        self.pos += m.end()
        return int(m.group(0))

    def parse(self) -> RelStructure:
        kw = self.word()
        if kw != "size":
            self.error("structure must start with 'size N;'")
        size = self.number()
        self.expect(";")
        pairs = []
        rels = {}
        while not self.eof():
            name = self.word()
            self.expect("/")
            arity = self.number()
            self.expect("=")
            self.expect("{")
            tuples = []
            while self.peek() != "}":
                if arity == 1 and self.peek() != "(":
                    tuples.append((self.number(),))
                else:
                    self.expect("(")
                    t = [self.number()]
                    while self.peek() == ",":
                        self.expect(",")
                        t.append(self.number())
                    self.expect(")")
                    tuples.append(tuple(t))
                if self.peek() not in (",", "}"):
                    self.error("expected ',' or '}' after tuple")
                if self.peek() == ",":
                    self.expect(",")
            self.expect("}")
            self.expect(";")
            if any(n == name for n, _ in pairs):
                self.error(f"duplicate relation {name!r}")
            pairs.append((name, arity))
            rels[name] = tuples
        return RelStructure(size, Signature.of(pairs), rels)


def parse_structure(text: str) -> RelStructure:
    """Parse either surface syntax (JSON or compact) into canonical form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e.msg}", e.pos) from None
        return structure_from_dict(obj)
    return _CompactParser(text).parse()


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def power_structure(a: RelStructure, n: int) -> RelStructure:
    """The n-th power of ``a`` with domain {0..size^n - 1} under TupleCoding.

    A tuple of coded n-vectors is in a relation of the power iff every
    coordinate-wise projection is a tuple of ``a``; hence each relation has
    exactly |R|^n tuples: column j of a selection (t_1..t_n) of them codes
    coordinate j of the power tuple.
    """
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    dom = a.size**n
    if dom > DEFAULT_POWER_CAP:
        raise CapacityError(
            f"power domain {a.size}^{n} = {dom} exceeds cap {DEFAULT_POWER_CAP}")
    rels = {name: [t for block in selection_columns(a.size, a.relations[name], arity, n)
                   for t in zip(*block)]
            for name, arity in a.signature.rel_names}
    return RelStructure(dom, a.signature, rels)
