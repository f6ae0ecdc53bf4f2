"""Certificate reports: canonical JSON emission and re-verification.

Every positive decision ships with a certificate that the independent
checkers accept (homomorphism maps, operation tables with their
identities, colorings, chains).  Reports embed their inputs in canonical
form, so ``verify_report`` can re-check every certificate from the report
alone.  In deterministic mode (the default) a report's bytes depend only
on input and configuration: node counts are included, wall-clock time is
not.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__ as _version
from .clones import (
    OperationTable,
    clone_from_dict,
    is_polymorphism,
    operation_from_dict,
    operation_to_dict,
    preserves,
    satisfies_system,
    SIGGERS_SYSTEM,
)
from .constructions import PPFormula, PPPowerSpec, pp_power
from .freestruct import Coloring, FreeStructure, verify_coloring
from .homs import HomMap, is_hom
from .maltsev import HMChain, verify_hm_chain
from .structures import RelStructure, structure_from_dict, structure_to_dict


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# -- object <-> dict helpers -------------------------------------------------

def hom_map_to_dict(h: HomMap) -> dict:
    return {"source_size": h.source_size, "target_size": h.target_size,
            "map": list(h.map)}


def hom_map_from_dict(obj) -> HomMap:
    return HomMap(int(obj["source_size"]), int(obj["target_size"]),
                  tuple(int(v) for v in obj["map"]))


def formula_to_dict(phi: PPFormula) -> dict:
    return {"free_vars": phi.free_vars, "exist_vars": phi.exist_vars,
            "atoms": [[name, list(args)] for name, args in phi.atoms],
            "eq_atoms": [list(e) for e in phi.eq_atoms]}


def formula_from_dict(obj) -> PPFormula:
    return PPFormula(int(obj["free_vars"]), int(obj["exist_vars"]),
                     tuple((str(n), tuple(int(v) for v in a)) for n, a in obj["atoms"]),
                     tuple((int(i), int(j)) for i, j in obj["eq_atoms"]))


def spec_to_dict(spec: PPPowerSpec) -> dict:
    return {"dimension": spec.dimension,
            "defs": [[name, arity, formula_to_dict(phi)]
                     for name, arity, phi in spec.defs]}


def spec_from_dict(obj) -> PPPowerSpec:
    return PPPowerSpec(int(obj["dimension"]),
                       tuple((str(n), int(a), formula_from_dict(f))
                             for n, a, f in obj["defs"]))


def free_to_dict(free: FreeStructure) -> dict:
    return {
        "domain_size": free.domain_size,
        "b": structure_to_dict(free.b),
        "carrier": [list(op.table) for op in free.carrier],
        "gen_index": list(free.gen_index),
        "lifted": {name: [list(t) for t in tuples]
                   for name, tuples in free.lifted.items()},
        "source": free.source,
    }


def free_from_dict(obj) -> FreeStructure:
    b = structure_from_dict(obj["b"])
    d = int(obj["domain_size"])
    carrier = tuple(OperationTable(d, b.size, tuple(int(v) for v in tab))
                    for tab in obj["carrier"])
    lifted = {name: tuple(sorted(tuple(int(v) for v in t) for t in tuples))
              for name, tuples in obj["lifted"].items()}
    return FreeStructure(d, b, carrier, tuple(int(v) for v in obj["gen_index"]),
                         lifted, str(obj["source"]))


def coloring_to_dict(c: Coloring) -> dict:
    return {"map": list(c.map), "strong": c.strong}


def coloring_from_dict(obj) -> Coloring:
    return Coloring(tuple(int(v) for v in obj["map"]), bool(obj["strong"]))


def chain_to_dict(chain: HMChain) -> dict:
    return {"n": chain.n, "ops": [operation_to_dict(op) for op in chain.ops]}


def chain_from_dict(obj) -> HMChain:
    return HMChain(int(obj["n"]), tuple(operation_from_dict(o) for o in obj["ops"]))


# -- report assembly ---------------------------------------------------------

def build_report(command: str, config: dict, inputs: dict, verdict: str,
                 certificates: dict, nodes: int,
                 deterministic: bool = True, wall_ms: float | None = None) -> dict:
    report = {
        "tool": "clonekit",
        "version": _version,
        "command": command,
        "config": config,
        "inputs": inputs,
        "input_digest": digest(inputs),
        "verdict": verdict,
        "certificates": certificates,
        "timings": {"nodes": nodes},
    }
    if not deterministic and wall_ms is not None:
        report["timings"]["wall_ms"] = round(wall_ms, 3)
    return report


def render_report(report: dict) -> str:
    return canonical_json(report)


# -- verification ------------------------------------------------------------

def _check(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


def verify_report(report: dict, recompute: bool = True) -> list[str]:
    """Re-verify every certificate embedded in a report.

    Returns a list of problems; empty means the report checks out.
    Refutation verdicts carry no witness: their digests are recomputed for
    consistency but the refutation itself is accepted as reported.  A
    ``budget`` verdict carries no certificate, so only its inputs are checked.
    """
    problems: list[str] = []
    try:
        command = report["command"]
        inputs = report["inputs"]
        verdict = report["verdict"]
        certs = report.get("certificates", {})
    except (KeyError, TypeError):
        return ["report is missing required fields"]
    if report.get("input_digest") != digest(inputs):
        problems.append("input digest does not match embedded inputs")

    if verdict == "budget":
        return problems

    def structure(key) -> RelStructure:
        return structure_from_dict(inputs[key])

    try:
        if command in ("hom", "homeq"):
            src, dst = structure("source"), structure("target")
            if verdict == "found":
                fwd = hom_map_from_dict(certs["witness" if command == "hom" else "forward"])
                _check(problems, is_hom(fwd, src, dst), "forward witness is not a homomorphism")
                if command == "homeq":
                    bwd = hom_map_from_dict(certs["backward"])
                    _check(problems, is_hom(bwd, dst, src),
                           "backward witness is not a homomorphism")
        elif command == "core":
            a = structure("structure")
            core = structure_from_dict(certs["core"])
            subset = tuple(int(v) for v in certs["subset"])
            retr = hom_map_from_dict(certs["retraction"])
            _check(problems, a.induced(subset) == core,
                   "core is not the induced substructure on the subset")
            _check(problems, is_hom(retr, a, core), "retraction is not a homomorphism")
            _check(problems,
                   all(retr.map[subset[i]] == i for i in range(len(subset))),
                   "retraction is not the identity on the core")
        elif command == "poly":
            a = structure("structure")
            arity = int(report["config"]["arity"])
            tables = [operation_from_dict(o) for o in certs["tables"]]
            for op in tables:
                _check(problems, op.arity == arity and is_polymorphism(op, a),
                       "emitted table is not a polymorphism")
            if recompute and verdict == "complete":
                from .clones import all_polymorphisms
                fresh = all_polymorphisms(a, arity)
                _check(problems, [op.table for op in fresh] == [op.table for op in tables],
                       "table list does not match recomputation")
        elif command == "pp":
            a = structure("structure")
            spec = spec_from_dict(inputs["spec"])
            power = structure_from_dict(certs["power"])
            if recompute:
                _check(problems, pp_power(a, spec) == power,
                       "power structure does not match recomputation")
        elif command == "ppdef":
            a = structure("structure")
            rel = [tuple(int(v) for v in t) for t in inputs["relation"]["tuples"]]
            if verdict == "not-definable":
                viol = operation_from_dict(certs["violator"])
                _check(problems, is_polymorphism(viol, a),
                       "violator does not preserve the structure")
                _check(problems, not preserves(viol, rel),
                       "violator actually preserves the candidate relation")
        elif command in ("color", "maltsev", "h1", "classify"):
            _verify_coloring_style(command, report, inputs, verdict, certs,
                                   problems, recompute)
        elif command == "verify":
            problems.append("cannot verify a verification report")
        else:
            problems.append(f"unknown command {command!r}")
    except (KeyError, ValueError, TypeError) as e:
        problems.append(f"malformed report: {e}")
    return problems


def _verify_coloring_style(command, report, inputs, verdict, certs, problems,
                           recompute):
    from .clones import all_polymorphisms
    from .freestruct import free_structure_over_polymorphisms
    from .freestruct import free_structure as build_free

    def rebuilt_free(free: FreeStructure) -> FreeStructure | None:
        if not recompute:
            return None
        if free.source == "generators" and "clone" in inputs:
            return build_free(clone_from_dict(inputs["clone"]), free.b)
        if free.source == "polymorphisms" and "structure" in inputs:
            return free_structure_over_polymorphisms(
                structure_from_dict(inputs["structure"]), free.b)
        return None

    def check_coloring(cert):
        free = free_from_dict(cert["free"])
        coloring = coloring_from_dict(cert["coloring"])
        _check(problems, verify_coloring(free, coloring),
               "coloring fails its defining conditions")
        fresh = rebuilt_free(free)
        if fresh is not None:
            _check(problems, fresh.lifted == free.lifted
                   and [o.table for o in fresh.carrier] == [o.table for o in free.carrier],
                   "embedded free structure does not match recomputation")

    if command == "color":
        if verdict == "found":
            check_coloring(certs)
    elif command == "h1":
        if verdict == "exists":
            check_coloring(certs)
            b = structure_from_dict(inputs["target"])
            for o in certs.get("induced", []):
                _check(problems, is_polymorphism(operation_from_dict(o), b),
                       "induced operation is not a polymorphism of the target")
    elif command == "maltsev":
        if "coloring" in certs:
            check_coloring(certs)
        if "chain" in certs:
            chain = chain_from_dict(certs["chain"])
            _check(problems, verify_hm_chain(chain), "chain identities fail")
            if "clone" in inputs and recompute:
                gen = clone_from_dict(inputs["clone"])
                from .clones import generate_to_arity
                members = {op.table for op in generate_to_arity(gen, 3)}
                _check(problems, all(op.table in members for op in chain.ops),
                       "chain operations are not members of the clone")
    elif command == "classify":
        a = structure_from_dict(inputs["structure"])
        if verdict == "hardness-certificate":
            check_coloring(certs["coloring"])
        elif verdict == "taylor-witness":
            sig = operation_from_dict(certs["siggers"])
            _check(problems, satisfies_system({"t": sig}, SIGGERS_SYSTEM),
                   "witness does not satisfy the four-variable identity")
            _check(problems, is_polymorphism(sig, a),
                   "witness is not a polymorphism")
    if isinstance(certs, dict) and "refutation_digest" in certs:
        payload = dict(certs["refutation_digest"])
        claimed = payload.pop("digest", None)
        _check(problems, claimed == digest(payload),
               "refutation digest does not match its payload")


def refutation_digest(free: FreeStructure, nodes: int) -> dict:
    """A reproducible fingerprint of an exhaustive strong-coloring refutation."""
    payload = {"free": digest(free_to_dict(free)), "outcome": "refuted",
               "nodes": nodes}
    return {**payload, "digest": digest(payload)}
