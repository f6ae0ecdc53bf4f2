"""Checks of each decision's exit code, verdict and certificate, written apart
from clonekit.

Expected verdicts come from theory, not from clonekit: textbook facts for the
Maltsev tests, Schaefer's theorem (decided here by brute force) for Boolean
structures with both constants, Hell-Nesetril for undirected graphs, and a
direct Maltsev-polymorphism check for the directed 3-cycle.  Certificates are
re-checked pointwise by the small evaluators below.  ``check`` returns the
list of problems; an empty list means the decision passed.
"""

from __future__ import annotations

import itertools

from workloads import MAJORITY, MALTSEV3, MAX2, MIN2, MINORITY, chain

EXIT_OK, EXIT_NEGATIVE = 0, 3


def relations(s: dict) -> dict[str, set[tuple[int, ...]]]:
    return {key: {tuple(t) for t in tuples} for key, tuples in s["relations"].items()}


def apply(f: dict, args) -> int:
    idx = 0
    for a in args:
        idx = idx * f["domain_size"] + a
    return f["table"][idx]


def preserves(f: dict, rel: set) -> bool:
    """f applied coordinatewise to any selection of tuples stays in rel."""
    if not rel:
        return True
    k = len(next(iter(rel)))
    for sel in itertools.product(rel, repeat=f["arity"]):
        if tuple(apply(f, [t[j] for t in sel]) for j in range(k)) not in rel:
            return False
    return True


def preserves_all(f: dict, s: dict) -> bool:
    return all(preserves(f, rel) for rel in relations(s).values())


def is_hom(m: list[int], src: dict, dst: dict) -> bool:
    if len(m) != src["size"] or any(not 0 <= v < dst["size"] for v in m):
        return False
    target = relations(dst)
    return relations(src).keys() == target.keys() and all(
        tuple(m[v] for v in t) in target[key]
        for key, rel in relations(src).items() for t in rel)


def same_structure(a: dict, b: dict) -> bool:
    return a["size"] == b["size"] and relations(a) == relations(b)


# -- expected verdicts --------------------------------------------------------

def schaefer_tractable(s: dict) -> bool:
    """A Boolean structure with both constants is tractable exactly when one
    of min, max, majority, minority preserves all of its relations."""
    return any(preserves_all(f, s) for f in (MIN2, MAX2, MAJORITY, MINORITY))


def _odd_cycle(size: int, edges: set) -> bool:
    side = {}
    for start in range(size):
        if start in side:
            continue
        side[start] = 0
        todo = [start]
        while todo:
            x = todo.pop()
            for a, b in edges:
                if a != x:
                    continue
                if b not in side:
                    side[b] = 1 - side[x]
                    todo.append(b)
                elif side[b] == side[x]:
                    return True
    return False


def classify_expected_hard(s: dict) -> bool:
    rels = relations(s)
    if s["size"] == 2:
        return not schaefer_tractable(s)
    edges = rels["edge/2"]
    if all((b, a) in edges for a, b in edges):
        # Hell-Nesetril: a loopless non-bipartite graph is NP-hard; adding
        # singletons cannot make it easier
        if any(a == b for a, b in edges) or not _odd_cycle(s["size"], edges):
            raise ValueError("graph outside the corpus' assumptions")
        return True
    # the directed 3-cycle, with or without singletons: x-y+z mod 3 is a
    # Maltsev polymorphism, so it has a Taylor operation
    if s["size"] == 3 and preserves_all(MALTSEV3, s):
        return False
    raise ValueError("structure outside the corpus' assumptions")


# -- certificate checks -------------------------------------------------------

def day() -> dict:
    def eq(blocks):
        return [(x, y) for blk in blocks for x in blk for y in blk]
    return {"size": 4, "relations": {"alpha/2": eq([(0, 1), (2, 3)]),
                                     "beta/2": eq([(0, 2), (1, 3)]),
                                     "gamma/2": eq([(0, 1), (2,), (3,)])}}


def projection_test() -> dict:
    return {"size": 2, "relations": {"one_in_three/3": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                     "zero/1": [(0,)], "one/1": [(1,)]}}


def coloring_problems(cert: dict, b: dict, strong: bool) -> list[str]:
    """The embedded coloring maps every lifted tuple into b's relation and,
    when strong, sends each generator to its own index."""
    free, col = cert["free"], cert["coloring"]["map"]
    out = []
    if not same_structure(free["b"], b):
        out.append("free structure is over the wrong target")
    if len(col) != len(free["carrier"]):
        return out + ["coloring is not total on the carrier"]
    rels = relations(b)
    for name, tuples in free["lifted"].items():
        key = next(k for k in rels if k.rpartition("/")[0] == name)
        if any(tuple(col[i] for i in t) not in rels[key] for t in tuples):
            out.append(f"coloring sends a lifted {name} tuple outside {name}")
    if strong and [col[i] for i in free["gen_index"]] != list(range(b["size"])):
        out.append("strong coloring moves a generator")
    return out


def ternary_members(clone: dict) -> set[tuple[int, ...]]:
    """Ternary members of the generated clone: the projections closed under
    composition with the generators."""
    d = clone["domain_size"]
    points = list(itertools.product(range(d), repeat=3))
    members = {tuple(p[i] for p in points) for i in range(3)}
    frontier = set(members)
    while frontier:
        new = set()
        for g in clone["operations"]:
            for args in itertools.product(members, repeat=g["arity"]):
                if not frontier.intersection(args):
                    continue
                t = tuple(apply(g, [a[x] for a in args]) for x in range(len(points)))
                if t not in members:
                    new.add(t)
        members |= new
        frontier = new
    return members


def chain_problems(ch: dict, clone: dict) -> list[str]:
    """Pointwise Hagemann-Mitschke identities, and membership in the clone."""
    ops = ch["ops"]
    d = clone["domain_size"]
    out = []
    if len(ops) != ch["n"] - 1 or any(o["arity"] != 3 for o in ops):
        return ["chain has the wrong shape"]
    for x, y in itertools.product(range(d), repeat=2):
        ok = apply(ops[0], (x, y, y)) == x and apply(ops[-1], (x, x, y)) == y
        ok = ok and all(apply(ops[i], (x, x, y)) == apply(ops[i + 1], (x, y, y))
                        for i in range(len(ops) - 1))
        if not ok:
            return [f"chain identities fail at x={x}, y={y}"]
    members = ternary_members(clone)
    if any(tuple(o["table"]) not in members for o in ops):
        out.append("chain operation is not a member of the clone")
    return out


def siggers_problems(t: dict, s: dict) -> list[str]:
    d = s["size"]
    out = []
    if t["arity"] != 4 or t["domain_size"] != d:
        return ["Siggers witness has the wrong shape"]
    if any(apply(t, (a, r, e, a)) != apply(t, (r, a, r, e))
           for a, r, e in itertools.product(range(d), repeat=3)):
        out.append("witness fails t(a,r,e,a) = t(r,a,r,e)")
    if not preserves_all(t, s):
        out.append("witness is not a polymorphism")
    return out


def evaluate(formula: dict, a: dict) -> set[tuple[int, ...]]:
    """Brute-force satisfaction set of a pp formula over a."""
    rels = {key.rpartition("/")[0]: rel for key, rel in relations(a).items()}
    nfree, nvars = formula["free_vars"], formula["free_vars"] + formula["exist_vars"]
    out = set()
    for val in itertools.product(range(a["size"]), repeat=nvars):
        if all(tuple(val[v] for v in args) in rels[name]
               for name, args in formula["atoms"]) and \
                all(val[i] == val[j] for i, j in formula["eq_atoms"]):
            out.add(val[:nfree])
    return out


def pp_problems(report: dict, src: dict, dst: dict) -> list[str]:
    certs, spec = report["certificates"], report["inputs"]["spec"]
    n, base = spec["dimension"], src["size"]
    power = certs["power"]
    out = []
    if power["size"] != base ** n:
        out.append("power has the wrong domain size")

    def code(block):
        c = 0
        for v in block:
            c = c * base + v
        return c

    want = {}
    for name, arity, formula in spec["defs"]:
        want[f"{name}/{arity}"] = {
            tuple(code(t[j * n:(j + 1) * n]) for j in range(arity))
            for t in evaluate(formula, src)}
    if relations(power) != want:
        out.append("power relations differ from the spec's formulas")
    if not is_hom(certs["forward"]["map"], power, dst):
        out.append("forward map is not a homomorphism power -> target")
    if not is_hom(certs["backward"]["map"], dst, power):
        out.append("backward map is not a homomorphism target -> power")
    return out


def check(expect: dict, report: dict | None, code) -> list[str]:
    """Problems with one decision's exit code and report."""
    if report is None:
        return [f"no report (exit {code})"]
    kind = expect["kind"]
    verdict = report.get("verdict")
    certs = report.get("certificates", {})
    try:
        if kind == "maltsev":
            holds = expect["holds"]
            want = ("holds", EXIT_OK) if holds else ("fails", EXIT_NEGATIVE)
            if (verdict, code) != want:
                return [f"{expect['test']}: got {verdict}/exit {code}, expected {want}"]
            b = day() if expect["test"] == "modular" else chain(2)
            if not holds:
                return coloring_problems(certs, b, strong=True)
            if expect["test"] == "n-perm":
                if "chain" not in certs:
                    return ["no Hagemann-Mitschke chain attached"]
                return chain_problems(certs["chain"], expect["clone"])
            return []
        if kind == "color":
            if (verdict, code) != ("refuted", EXIT_NEGATIVE):
                return [f"color: got {verdict}/exit {code}, expected refuted/exit 3"]
            return []
        if kind == "classify":
            s = expect["structure"]
            problems = []
            if not same_structure(report["inputs"]["structure"], s):
                problems.append("report embeds another structure than the input")
            if classify_expected_hard(s):
                if (verdict, code) != ("hardness-certificate", EXIT_NEGATIVE):
                    return problems + [f"got {verdict}/exit {code}, expected hardness"]
                cert = certs["coloring"]
                problems += coloring_problems(cert, projection_test(), strong=False)
                d = s["size"]
                for tab in cert["free"]["carrier"]:
                    f = {"domain_size": d, "arity": 2, "table": tab}
                    if not preserves_all(f, s):
                        problems.append("carrier holds a non-polymorphism")
                        break
                return problems
            if (verdict, code) != ("taylor-witness", EXIT_OK):
                return problems + [f"got {verdict}/exit {code}, expected a Taylor witness"]
            return problems + siggers_problems(certs["siggers"], s)
        if kind == "pp":
            if (verdict, code) != ("found", EXIT_OK):
                return [f"pp search: got {verdict}/exit {code}, expected found"]
            return pp_problems(report, expect["source"], expect["target"])
    except (KeyError, TypeError, ValueError, IndexError, StopIteration) as e:
        return [f"malformed certificate: {e!r}"]
    raise ValueError(f"unknown decision kind {kind!r}")
