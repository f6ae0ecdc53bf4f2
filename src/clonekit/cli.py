"""Command-line surface: classify structures and emit certificate reports.

Exit codes, uniform across subcommands:
  0  positive decision (homomorphism/coloring/witness found, condition holds)
  1  input parse error or usage error
  2  capacity exceeded
  3  negative decision, exhaustively refuted (hardness certificate for classify)
  4  inconclusive: budget exhausted
Reports are canonical JSON: with determinism on (default), identical input
and configuration produce byte-identical reports.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from . import __version__
from .clones import (
    all_polymorphisms,
    clone_from_dict,
    clone_to_dict,
    operation_to_dict,
)
from .constructions import (
    PPPowerSpec,
    is_pp_definable,
    parse_pp_formula,
    pp_power,
)
from .freestruct import (
    free_structure,
    find_coloring,
    h1_homomorphism_exists,
    h1_to_projections,
)
from .homs import SignatureMismatchError, core_of, find_homomorphism, hom_equivalent
from .maltsev import (
    DAY_LABELS,
    find_hagemann_mitschke,
    is_congruence_modular,
    is_n_permutable_somewhere,
)
from .reports import (
    build_report,
    chain_to_dict,
    coloring_to_dict,
    free_to_dict,
    hom_map_to_dict,
    refutation_digest,
    render_report,
    spec_to_dict,
    verify_report,
)
from .search import BudgetExceededError, Outcome, SearchBudget
from .structures import (
    CapacityError,
    ParseError,
    RelStructure,
    parse_structure,
    structure_to_dict,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAPACITY = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_structure(path: str) -> RelStructure:
    try:
        return parse_structure(Path(path).read_text())
    except (OSError, ParseError, ValueError) as e:
        _fail(EXIT_PARSE, f"{path}: {e}")


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        _fail(EXIT_PARSE, f"{path}: {e}")


def _read_clone(path: str):
    try:
        return clone_from_dict(_read_json(path))
    except ValueError as e:
        _fail(EXIT_PARSE, f"{path}: {e}")


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        _fail(EXIT_PARSE, f"{path}: {e}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(EXIT_PARSE, f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _common_options() -> list[click.Option]:
    return [
        click.Option(["--json", "json_path"], type=click.Path(), default=None,
                     help="Also write the canonical JSON report to this path."),
        click.Option(["--budget-nodes"], type=int, default=None,
                     help="Search node limit."),
        click.Option(["--budget-ms"], type=float, default=None,
                     help="Search time limit in milliseconds."),
        click.Option(["--parallel"], type=int, default=None,
                     help="Accepted for compatibility and echoed in the report;"
                          " search is sequential."),
        click.Option(["--deterministic/--no-deterministic"], default=True,
                     help="Byte-stable reports and witnesses (default on)."),
        click.Option(["--config", "config_path"], type=click.Path(), default=None,
                     help="key=value file with budget-nodes/budget-ms/parallel;"
                          " flags override."),
    ]


def _decide(command: str, inputs: dict, body, *, json_path, budget_nodes,
            budget_ms, parallel, deterministic, config_path, **config):
    """Run ``body(budget)``, which returns (verdict, certificates, nodes,
    text, exit code); report, print and exit with that code.  A budget
    that runs out inside ``body`` is reported as verdict ``budget`` with
    exit 4.  ``config`` holds the command's own options, echoed in the
    report."""
    file_cfg = _load_config_file(config_path) if config_path else {}
    try:
        if budget_nodes is None and "budget-nodes" in file_cfg:
            budget_nodes = int(file_cfg["budget-nodes"])
        if budget_ms is None and "budget-ms" in file_cfg:
            budget_ms = float(file_cfg["budget-ms"])
        if parallel is None and "parallel" in file_cfg:
            parallel = int(file_cfg["parallel"])
    except ValueError as e:
        _fail(EXIT_PARSE, f"bad config value: {e}")
    if parallel is not None and parallel < 0:
        _fail(EXIT_PARSE, "bad budget: parallel must not be negative")
    try:
        budget = SearchBudget(node_limit=budget_nodes, time_limit_ms=budget_ms)
    except ValueError as e:
        _fail(EXIT_PARSE, f"bad budget: {e}")
    echo = {"budget_nodes": budget_nodes, "budget_ms": budget_ms,
            "parallel": parallel or 1, "deterministic": deterministic, **config}
    t0 = time.monotonic()
    try:
        verdict, certs, nodes, text, code = body(budget)
    except CapacityError as e:
        _fail(EXIT_CAPACITY, str(e))
    except BudgetExceededError as e:
        # still a decision: the report says the budget ran out
        click.echo(f"error: budget exhausted: {e}", err=True)
        verdict, certs, nodes, text, code = "budget", {}, 0, None, EXIT_INCONCLUSIVE
    except (SignatureMismatchError, ValueError) as e:
        _fail(EXIT_PARSE, str(e))
    wall = (time.monotonic() - t0) * 1000
    report = build_report(command, echo, inputs, verdict, certs, nodes,
                          deterministic, wall)
    if text is not None:
        click.echo(text)
    if json_path:
        Path(json_path).write_text(render_report(report))
    sys.exit(code)


def _searched(res, verdict=None, certs=None, text=None):
    """Body result of a search-shaped command (hom, homeq, color, h1):
    FOUND, REFUTED and BUDGET exit 0, 3 and 4.  A BUDGET outcome carries
    no certificates and ignores the verdict, certificates and text given."""
    if res.outcome is Outcome.BUDGET:
        return ("budget", {}, res.nodes, "inconclusive: budget exhausted",
                EXIT_INCONCLUSIVE)
    return verdict, certs, res.nodes, text, EXIT_OK if res.found else EXIT_NEGATIVE


class _Cli(click.Group):
    """Usage errors exit 1 (parse error), not click's 2 (capacity here)."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as e:
            e.exit_code = EXIT_PARSE
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = EXIT_PARSE
            raise


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="clonekit")
def main():
    """Classify finite relational structures and certify the verdicts."""


def decision(f):
    """Register a decision command on ``main``, followed by the common options."""
    command = main.command()(f)
    command.params += _common_options()
    return command


@decision
@click.argument("structure_file", type=click.Path(exists=True))
def classify(structure_file, **common):
    """Decide the conjectured hardness/tractability side for a structure.

    Exit 0 with a Siggers (Taylor) witness, exit 3 with an h1-to-projections
    hardness certificate, exit 4 when the budget runs out.  The tool never
    claims polynomial-time solvability, only the witness.
    """
    a = _read_structure(structure_file)

    def body(budget):
        res = h1_to_projections(a, budget)
        nodes = (res.siggers.nodes if res.siggers else 0) + \
                (res.coloring.nodes if res.coloring else 0)
        if res.outcome is Outcome.BUDGET:
            return ("inconclusive", {}, nodes, "inconclusive: budget exhausted "
                    "before both oracles finished", EXIT_INCONCLUSIVE)
        if res.exists:
            certs = {
                "coloring": {"free": free_to_dict(res.coloring.free),
                             "coloring": coloring_to_dict(res.coloring.coloring)},
                "siggers_refuted": True,
            }
            return ("hardness-certificate", certs, nodes,
                    "hardness certificate: the polymorphism clone maps to the "
                    "projection clone by an h1 clone homomorphism (CSP is NP-hard)",
                    EXIT_NEGATIVE)
        certs = {"siggers": operation_to_dict(res.siggers.assignment["t"])}
        return ("taylor-witness", certs, nodes,
                "Taylor witness found (Siggers table attached): conjectured "
                "tractable side; no h1 clone homomorphism to the projections",
                EXIT_OK)

    _decide("classify", {"structure": structure_to_dict(a)}, body, **common)


@decision
@click.argument("source_file", type=click.Path(exists=True))
@click.argument("target_file", type=click.Path(exists=True))
def hom(source_file, target_file, **common):
    """Search for a homomorphism SOURCE -> TARGET."""
    c = _read_structure(source_file)
    a = _read_structure(target_file)

    def body(budget):
        res = find_homomorphism(c, a, budget)
        if res.found:
            certs = {"witness": hom_map_to_dict(res.witness)}
            return _searched(res, "found", certs, f"found: {list(res.witness.map)}")
        return _searched(res, "refuted", {}, "refuted: no homomorphism exists")

    inputs = {"source": structure_to_dict(c), "target": structure_to_dict(a)}
    _decide("hom", inputs, body, **common)


@decision
@click.argument("structure_file", type=click.Path(exists=True))
def core(structure_file, **common):
    """Compute the core and the retraction onto it."""
    a = _read_structure(structure_file)

    def body(budget):
        res = core_of(a, budget)
        certs = {"core": structure_to_dict(res.core),
                 "retraction": hom_map_to_dict(res.retraction),
                 "subset": list(res.subset)}
        return ("core", certs, 0,
                f"core has {res.core.size} element(s), carried by "
                f"{list(res.subset)}; retraction {list(res.retraction.map)}",
                EXIT_OK)

    _decide("core", {"structure": structure_to_dict(a)}, body, **common)


@decision
@click.argument("source_file", type=click.Path(exists=True))
@click.argument("target_file", type=click.Path(exists=True))
def homeq(source_file, target_file, **common):
    """Decide homomorphic equivalence of two structures."""
    a = _read_structure(source_file)
    b = _read_structure(target_file)

    def body(budget):
        res = hom_equivalent(a, b, budget)
        if res.found:
            certs = {"forward": hom_map_to_dict(res.forward),
                     "backward": hom_map_to_dict(res.backward)}
            return _searched(res, "found", certs, f"equivalent: "
                             f"{list(res.forward.map)} / {list(res.backward.map)}")
        return _searched(res, "refuted", {},
                         "refuted: one direction has no homomorphism")

    inputs = {"source": structure_to_dict(a), "target": structure_to_dict(b)}
    _decide("homeq", inputs, body, **common)


@decision
@click.argument("structure_file", type=click.Path(exists=True))
@click.option("--arity", type=int, required=True, help="Polymorphism arity.")
def poly(structure_file, arity, **common):
    """Enumerate all polymorphisms of a given arity."""
    a = _read_structure(structure_file)

    def body(budget):
        tables = all_polymorphisms(a, arity, budget)
        certs = {"tables": [operation_to_dict(op) for op in tables]}
        lines = [f"{len(tables)} polymorphism(s) of arity {arity}"]
        lines += [f"  {list(op.table)}" for op in tables]
        return "complete", certs, 0, "\n".join(lines), EXIT_OK

    _decide("poly", {"structure": structure_to_dict(a)}, body, arity=arity, **common)


def _read_power_spec(path: str) -> PPPowerSpec:
    obj = _read_json(path)
    try:
        dim = int(obj["dimension"])
        defs = []
        for key, fml in obj["relations"].items():
            name, _, arity_s = key.rpartition("/")
            phi = parse_pp_formula(fml) if isinstance(fml, str) else None
            if phi is None:
                raise ValueError(f"relation {key!r}: formula must be a string")
            defs.append((name, int(arity_s), phi))
        return PPPowerSpec(dim, tuple(defs))
    except (KeyError, TypeError, ValueError) as e:
        _fail(EXIT_PARSE, f"{path}: {e}")


@decision
@click.argument("structure_file", type=click.Path(exists=True))
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True,
              help="pp-power spec file: dimension plus formula per relation.")
def pp(structure_file, spec_path, **common):
    """Build the pp-power of a structure from a spec file."""
    a = _read_structure(structure_file)
    spec = _read_power_spec(spec_path)

    def body(budget):
        power = pp_power(a, spec)
        sizes = {n: len(power.relations[n]) for n, _ in power.signature.rel_names}
        return ("built", {"power": structure_to_dict(power)}, 0,
                f"power has {power.size} elements; relation sizes " + str(sizes),
                EXIT_OK)

    inputs = {"structure": structure_to_dict(a), "spec": spec_to_dict(spec)}
    _decide("pp", inputs, body, **common)


@decision
@click.argument("structure_file", type=click.Path(exists=True))
@click.option("--target", "target_path", type=click.Path(exists=True),
              required=True,
              help='Candidate relation file: {"arity": k, "tuples": [[..]]}.')
@click.option("--max-arity", type=int, default=4, show_default=True,
              help="Violator search arity cap (complete when >= |R|).")
def ppdef(structure_file, target_path, max_arity, **common):
    """Decide pp-definability of a candidate relation."""
    a = _read_structure(structure_file)
    obj = _read_json(target_path)
    try:
        arity = int(obj["arity"])
        tuples = [tuple(int(v) for v in t) for t in obj["tuples"]]
    except (KeyError, TypeError, ValueError) as e:
        _fail(EXIT_PARSE, f"{target_path}: {e}")

    def body(budget):
        res = is_pp_definable(a, tuples, arity, budget, max_arity)
        if res.definable:
            certs = {"complete": res.complete, "arity_searched": res.arity_searched}
            kind = "complete" if res.complete else f"bounded at arity {res.arity_searched}"
            return ("definable", certs, 0,
                    f"definable ({kind}): no violating polymorphism", EXIT_OK)
        certs = {"violator": operation_to_dict(res.violator),
                 "selection": [list(t) for t in res.selection]}
        return ("not-definable", certs, 0,
                f"not definable: arity-{res.violator.arity} polymorphism "
                f"{list(res.violator.table)} moves {list(res.selection)} outside",
                EXIT_NEGATIVE)

    inputs = {"structure": structure_to_dict(a),
              "relation": {"arity": arity, "tuples": [list(t) for t in tuples]}}
    _decide("ppdef", inputs, body, max_arity=max_arity, **common)


@decision
@click.argument("clone_file", type=click.Path(exists=True))
@click.option("--target", "target_path", type=click.Path(exists=True),
              required=True, help="Structure to color by.")
@click.option("--strong", is_flag=True, help="Pin generators to their indices.")
def color(clone_file, target_path, strong, **common):
    """Search for a (strong) coloring of a generated clone by a structure."""
    gen = _read_clone(clone_file)
    b = _read_structure(target_path)

    def body(budget):
        free = free_structure(gen, b, budget)
        res = find_coloring(free, strong=strong, budget=budget)
        if res.found:
            certs = {"free": free_to_dict(free),
                     "coloring": coloring_to_dict(res.coloring)}
            return _searched(res, "found", certs,
                             f"coloring found: {list(res.coloring.map)}")
        if res.outcome is Outcome.REFUTED:
            certs = {"refutation_digest": refutation_digest(free, res.nodes)}
            return _searched(res, "refuted", certs,
                             ("no strong coloring" if strong else "no coloring") +
                             f" (exhaustive refutation, {res.nodes} nodes)")
        return _searched(res)

    inputs = {"clone": clone_to_dict(gen), "target": structure_to_dict(b)}
    _decide("color", inputs, body, strong=strong, **common)


@decision
@click.argument("structure_file", type=click.Path(exists=True))
@click.option("--target", "target_path", type=click.Path(exists=True),
              required=True, help="Target structure B.")
def h1(structure_file, target_path, **common):
    """Does an h1 clone homomorphism Pol(SOURCE) -> Pol(TARGET) exist?"""
    a = _read_structure(structure_file)
    b = _read_structure(target_path)

    def body(budget):
        res = h1_homomorphism_exists(a, b, budget)
        if res.found:
            certs = {"free": free_to_dict(res.free),
                     "coloring": coloring_to_dict(res.coloring),
                     "induced": [operation_to_dict(op) for op in res.induced]}
            return _searched(res, "exists", certs, "h1 clone homomorphism "
                             f"exists; coloring {list(res.coloring.map)}")
        if res.outcome is Outcome.REFUTED:
            certs = {"refutation_digest": refutation_digest(res.free, res.nodes)}
            return _searched(res, "not-exists", certs,
                             "no h1 clone homomorphism (exhaustive refutation)")
        return _searched(res)

    inputs = {"structure": structure_to_dict(a), "target": structure_to_dict(b)}
    _decide("h1", inputs, body, **common)


@decision
@click.argument("clone_file", type=click.Path(exists=True))
@click.option("--test", "which", type=click.Choice(["n-perm", "modular", "hm-chain"]),
              required=True, help="Which Maltsev condition to test.")
@click.option("--n", "n_value", type=int, default=None,
              help="Chain length parameter for hm-chain (>= 2).")
def maltsev(clone_file, which, n_value, **common):
    """Test congruence n-permutability / modularity of a generated clone."""
    gen = _read_clone(clone_file)
    inputs = {"clone": clone_to_dict(gen)}
    if which == "hm-chain":
        if n_value is None or n_value < 2:
            _fail(EXIT_PARSE, "hm-chain needs --n >= 2")

        def chain_body(budget):
            res = find_hagemann_mitschke(gen, n_value, budget)
            if res.found:
                return ("found", {"chain": chain_to_dict(res.chain)}, 0,
                        f"chain found: {[list(op.table) for op in res.chain.ops]}",
                        EXIT_OK)
            return ("none", {}, 0, f"no chain of length {n_value - 1}",
                    EXIT_NEGATIVE)

        _decide("maltsev", inputs, chain_body, test=which, n=n_value, **common)

    run = is_n_permutable_somewhere if which == "n-perm" else is_congruence_modular

    def body(budget):
        res = run(gen, budget)
        nodes = res.coloring.nodes
        if res.holds is None:
            return ("inconclusive", {}, nodes, "inconclusive: budget exhausted",
                    EXIT_INCONCLUSIVE)
        if res.holds:
            certs = {"refutation_digest": refutation_digest(res.free, nodes)}
            extra = ""
            if res.chain is not None:
                certs["chain"] = chain_to_dict(res.chain)
                extra = f"; chain at n={res.chain.n}"
            return ("holds", certs, nodes,
                    f"{res.condition}: holds (no strong coloring){extra}", EXIT_OK)
        certs = {"coloring": coloring_to_dict(res.coloring.coloring),
                 "free": free_to_dict(res.free)}
        labels = DAY_LABELS if res.free.b.size == 4 else ("0", "1")
        colored = [labels[v] for v in res.coloring.coloring.map]
        return ("fails", certs, nodes,
                f"{res.condition}: fails; strong coloring {colored}", EXIT_NEGATIVE)

    _decide("maltsev", inputs, body, test=which, **common)


@main.command()
@click.argument("report_file", type=click.Path(exists=True))
@click.option("--no-recompute", is_flag=True,
              help="Skip recomputation checks; verify witnesses only.")
def verify(report_file, no_recompute):
    """Re-verify every certificate embedded in a report."""
    obj = _read_json(report_file)
    problems = verify_report(obj, recompute=not no_recompute)
    if problems:
        for p in problems:
            click.echo(f"FAIL: {p}", err=True)
        sys.exit(EXIT_NEGATIVE)
    click.echo("verified: all embedded certificates check out")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
