"""The benchmark's four workloads: their inputs and their decisions.

Inputs are plain data written as JSON files; nothing here imports clonekit,
so the independent checks in ``checks.py`` can read the same data.  Only
``classify`` draws inputs from the seed; the other workloads are fixed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("maltsev-d2", "maltsev-d3", "pp-construct", "classify")

# Random Boolean structures added to the classify corpus per seed.
RANDOM_STRUCTURES = 16


@dataclass(frozen=True)
class Decision:
    """One certified decision: a clonekit command, or the library pp search.

    ``expect`` holds what the independent checks need to know about the
    inputs; it never holds an answer computed by clonekit.
    """

    name: str
    argv: tuple[str, ...] = ()
    pp: tuple | None = None        # (source file, target file, bounds)
    expect: dict = field(default_factory=dict)


def op(d: int, arity: int, f) -> dict:
    """An operation table in clonekit's file format (first argument most
    significant)."""
    return {"domain_size": d, "arity": arity,
            "table": [f(*args) for args in itertools.product(range(d), repeat=arity)]}


MIN2 = op(2, 2, min)
MAX2 = op(2, 2, max)
MAJORITY = op(2, 3, lambda x, y, z: 1 if x + y + z >= 2 else 0)
MINORITY = op(2, 3, lambda x, y, z: x ^ y ^ z)
ADD3 = op(3, 2, lambda x, y: (x + y) % 3)
MIN3 = op(3, 2, min)
MAX3 = op(3, 2, max)
MALTSEV3 = op(3, 3, lambda x, y, z: (x - y + z) % 3)

# Textbook answers.  Modular: a majority term gives congruence distributivity
# (Jonsson), a Maltsev term gives permutability; semilattices and projections
# are neither.  n-permutable: exactly the clones with a Maltsev term here;
# monotone clones on a chain are strongly colorable by the two-element order.
D2_CLONES = {
    "lattice": ([MIN2, MAX2], {"modular": True, "n-perm": False}),
    "majority": ([MAJORITY], {"modular": True, "n-perm": False}),
    "minority": ([MINORITY], {"modular": True, "n-perm": True}),
    "min": ([MIN2], {"modular": False, "n-perm": False}),
    "projections": ([], {"modular": False, "n-perm": False}),
}
# On three elements the Day tests of {min,max} and x-y+z do not finish in
# minutes, so those two clones run n-perm only.
D3_CLONES = {
    "add": ([ADD3], {"modular": True, "n-perm": True}),
    "min": ([MIN3], {"modular": False, "n-perm": False}),
    "projections": ([], {"modular": False, "n-perm": False}),
    "lattice": ([MIN3, MAX3], {"n-perm": False}),
    "maltsev": ([MALTSEV3], {"n-perm": True}),
}


def structure(size: int, rels: dict) -> dict:
    return {"size": size,
            "relations": {key: [list(t) for t in tuples] for key, tuples in rels.items()}}


def singletons(size: int) -> dict:
    return {f"s{v}/1": [(v,)] for v in range(size)}


def chain(size: int) -> dict:
    return structure(size, {"le/2": [(a, b) for a in range(size)
                                     for b in range(size) if a <= b]})


# -- hepp structures: Z2 x Z2 coded (a, b) -> 2a + b, so addition is xor ----

def hepp_a() -> dict:
    rels = {}
    for c in range(4):
        rels[f"R{c >> 1}{c & 1}/3"] = [(x, y, z) for x in range(4) for y in range(4)
                                       for z in range(4) if x ^ y ^ z == c]
    for c in range(4):
        rels[f"s{c >> 1}{c & 1}/1"] = [(c,)]
    return structure(4, rels)


def hepp_ap() -> dict:
    a = hepp_a()["relations"]
    return structure(4, {"R00/3": a["R00/3"], "R10/3": a["R10/3"],
                         "s00/1": [(0,)], "s10/1": [(2,)]})


def hepp_b() -> dict:
    cube = list(itertools.product((0, 1), repeat=3))
    return structure(2, {"R00/3": [t for t in cube if sum(t) % 2 == 0],
                         "R10/3": [t for t in cube if sum(t) % 2 == 1],
                         "s00/1": [(0,)], "s10/1": [(1,)]})


# -- classify corpus ----------------------------------------------------------

LE = [(0, 0), (0, 1), (1, 1)]
RXOR = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
R1IN3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
NAE = [t for t in itertools.product((0, 1), repeat=3) if 0 < sum(t) < 3]
DISEQ = [(0, 1), (1, 0)]


def boolean_corpus() -> list[tuple[str, dict]]:
    """One base relation or a pair of them, plus both singletons: 15 structures."""
    base = {"le": LE, "rxor": RXOR, "onein3": R1IN3, "nae": NAE, "diseq": DISEQ}
    out = []
    for names in [(n,) for n in base] + list(itertools.combinations(base, 2)):
        rels = {f"{n}/{len(base[n][0])}": base[n] for n in names}
        out.append(("+".join(names), structure(2, {**rels, **singletons(2)})))
    return out


def random_boolean(rng: random.Random) -> dict:
    """One or two random nonempty relations of arity 2 or 3, plus singletons."""
    rels = {}
    for j in range(rng.choice((1, 2))):
        k = rng.choice((2, 3))
        cube = list(itertools.product((0, 1), repeat=k))
        rels[f"r{j}/{k}"] = sorted(rng.sample(cube, rng.randint(1, len(cube))))
    return structure(2, {**rels, **singletons(2)})


def undirected(edges) -> set:
    return {(a, b) for a, b in edges} | {(b, a) for a, b in edges}


def graphs() -> list[tuple[str, dict]]:
    c5 = undirected([(i, (i + 1) % 5) for i in range(5)])
    c7 = undirected([(i, (i + 1) % 7) for i in range(7)])
    k3 = {(a, b) for a in range(3) for b in range(3) if a != b}
    k4 = {(a, b) for a in range(4) for b in range(4) if a != b}
    dc3 = {(0, 1), (1, 2), (2, 0)}
    return [
        ("C5", structure(5, {"edge/2": sorted(c5)})),
        ("C7", structure(7, {"edge/2": sorted(c7)})),
        ("C5+s", structure(5, {"edge/2": sorted(c5), **singletons(5)})),
        ("K3+s", structure(3, {"edge/2": sorted(k3), **singletons(3)})),
        ("K4+s", structure(4, {"edge/2": sorted(k4), **singletons(4)})),
        ("DC3", structure(3, {"edge/2": sorted(dc3)})),
        ("DC3+s", structure(3, {"edge/2": sorted(dc3), **singletons(3)})),
    ]


# -- building a workload -------------------------------------------------------

def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def _maltsev(inputs: Path, clones: dict, d: int) -> list[Decision]:
    out = []
    for name, (gens, facts) in clones.items():
        path = _write(inputs / f"clone-{name}.json",
                      {"domain_size": d, "operations": gens})
        for test, holds in facts.items():
            out.append(Decision(
                f"{test}:{name}", ("maltsev", path, "--test", test),
                expect={"kind": "maltsev", "test": test, "holds": holds,
                        "clone": {"domain_size": d, "operations": gens}}))
    return out


def build(workload: str, seed: int, inputs: Path) -> list[Decision]:
    """Write the workload's input files under ``inputs``; return its decisions
    in the order a pass runs them."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "maltsev-d2":
        return _maltsev(inputs, D2_CLONES, 2)
    if workload == "maltsev-d3":
        out = _maltsev(inputs, D3_CLONES, 3)
        clone = _write(inputs / "clone-maltsev.json",
                       {"domain_size": 3, "operations": [MALTSEV3]})
        target = _write(inputs / "chain3.json", chain(3))
        out.append(Decision(
            "color-strong:maltsev/chain3",
            ("color", clone, "--target", target, "--strong"),
            expect={"kind": "color", "found": False}))
        return out
    if workload == "pp-construct":
        a = _write(inputs / "hepp_A.json", hepp_a())
        ap = _write(inputs / "hepp_Ap.json", hepp_ap())
        b = _write(inputs / "hepp_B.json", hepp_b())
        out = []
        for label, src, bounds in (("A", a, (1, 0, 1)), ("A", a, (1, 0, 2)),
                                   ("Ap", ap, (1, 0, 1))):
            out.append(Decision(
                f"pp:{label}->B@{','.join(map(str, bounds))}", pp=(src, b, bounds),
                expect={"kind": "pp", "source": hepp_a() if label == "A" else hepp_ap(),
                        "target": hepp_b()}))
        return out
    if workload == "classify":
        rng = random.Random(seed)
        named = boolean_corpus()
        named += [(f"random{i}", random_boolean(rng)) for i in range(RANDOM_STRUCTURES)]
        named += graphs()
        out = []
        for name, s in named:
            path = _write(inputs / f"{name}.json", s)
            out.append(Decision(f"classify:{name}", ("classify", path),
                                expect={"kind": "classify", "structure": s}))
        return out
    raise ValueError(f"unknown workload {workload!r}")
