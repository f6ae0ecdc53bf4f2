"""One fresh single-threaded benchmark process; ``run.py`` starts it.

Modes:
  setup  import clonekit and write the workload's inputs, then report the time;
  timed  set up, run whole passes over the decisions with tracing off for about
         ``--seconds``, read the peak memory, then check every decision;
  trace  set up, run one untraced and one traced pass, time certificate
         re-verification, then check every decision.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
EXIT_CODES = {"found": 0, "refuted": 3, "budget": 4}


def import_clonekit():
    """Import the clonekit of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import clonekit
    import clonekit.cli
    if src.resolve() not in Path(clonekit.__file__).resolve().parents:
        sys.exit(f"clonekit imported from {clonekit.__file__}, not from {src}")
    return clonekit


def run_pp(ck, decision, path: Path) -> int:
    """The bounded pp search has no command: call the library and write a
    report in the shape of the ``pp`` command's, with both maps attached."""
    src, dst, bounds = decision.pp
    parse = ck.structures.parse_structure
    rep = ck.reports
    a, b = parse(Path(src).read_text()), parse(Path(dst).read_text())
    res = ck.constructions.bounded_pp_search(a, b, ck.PPSearchBounds(*bounds))
    inputs = {"structure": ck.structures.structure_to_dict(a),
              "target": ck.structures.structure_to_dict(b)}
    certs = {}
    if res.found:
        inputs["spec"] = rep.spec_to_dict(res.spec)
        certs = {"power": ck.structures.structure_to_dict(res.power),
                 "forward": rep.hom_map_to_dict(res.forward),
                 "backward": rep.hom_map_to_dict(res.backward)}
    report = rep.build_report("pp", {"bounds": list(bounds)}, inputs,
                              res.outcome.value, certs, 0)
    path.write_text(rep.render_report(report))
    return EXIT_CODES[res.outcome.value]


def run_decision(ck, decision, path: Path, sink, tracer: Tracer | None):
    """Run one decision; return its exit code, or a string if it crashed."""
    if decision.pp is not None:
        return run_pp(ck, decision, path)
    if tracer is not None:
        tracer.enter("cli")
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            ck.cli.main(args=[*decision.argv, "--json", str(path)], prog_name="clonekit")
        return 0
    except SystemExit as e:
        return 0 if e.code is None else e.code
    finally:
        if tracer is not None:
            tracer.exit()


def run_pass(ck, decisions, reports: Path, tracer: Tracer | None = None):
    reports.mkdir(parents=True, exist_ok=True)
    out = []
    with open(os.devnull, "w") as sink:
        for i, d in enumerate(decisions):
            path = reports / f"{i:02d}.json"
            path.unlink(missing_ok=True)
            before = {}
            if tracer is not None:
                tracer.decision, tracer.free = i, []
                before = dict(tracer.counts)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                code = run_decision(ck, d, path, sink, tracer)
            except Exception as e:  # a crash inside clonekit fails the decision, not the run
                code = f"crash: {type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            data = path.read_bytes() if path.exists() else None
            rec = {"exit": code, "seconds": seconds, "bytes": data,
                   "digest": hashlib.sha256(data).hexdigest() if data else None}
            if tracer is not None:
                rec["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                                 if v != before.get(k, 0)}
                rec["free"] = tracer.free
            out.append(rec)
    return out


def check_all(ck, decisions, checked, passes):
    """Check the reports of one pass apart from clonekit and with
    ``verify_report(recompute=True)``; then count, per pass, the decisions
    whose exit code or report bytes differ from the checked pass."""
    verify_s = 0.0
    failed_decisions = []
    problems = {}
    for i, d in enumerate(decisions):
        rec = checked[i]
        report = json.loads(rec["bytes"]) if rec["bytes"] else None
        found = checks.check(d.expect, report, rec["exit"])
        if report is not None:
            t0 = time.perf_counter()
            found += ck.reports.verify_report(report, recompute=True)
            verify_s += time.perf_counter() - t0
        if found:
            problems[d.name] = found
        failed_decisions.append(bool(found))
    failed = 0
    for p in passes:
        for i, rec in enumerate(p):
            same = (rec["exit"], rec["digest"]) == (checked[i]["exit"], checked[i]["digest"])
            if failed_decisions[i] or not same:
                failed += 1
                if not same:
                    problems.setdefault(decisions[i].name, []).append(
                        "exit code or report bytes differ between passes")
    return failed, problems, verify_s


def records(decisions, checked):
    out = []
    for d, rec in zip(decisions, checked):
        report = json.loads(rec["bytes"]) if rec["bytes"] else {}
        r = {"name": d.name, "exit": rec["exit"], "verdict": report.get("verdict"),
             "report_digest": rec["digest"],
             "report_nodes": report.get("timings", {}).get("nodes")}
        if "counts" in rec:
            r["counts"] = dict(sorted(rec["counts"].items()))
            r["free"] = rec["free"]
        out.append(r)
    return out


def trace_metrics(tracer: Tracer, traced, verify_s: float) -> dict:
    m = {("cli.self_s" if layer == "cli" else f"{layer}_s"): (tracer.self_s[layer], "s")
         for layer in LAYERS}
    c = tracer.counts
    for name in ("freestruct.lifted_tuples", "freestruct.carrier", "clones.members",
                 "clones.polymorphisms", "search.nodes", "search.constraints",
                 "search.csps", "homs.searches", "constructions.specs_tried"):
        m[name] = (c[name], "count")
    tried = c["constructions.specs_tried"]
    m["constructions.found_per_spec"] = (c["constructions.specs_found"] / tried if tried else 0.0,
                                         "ratio")
    m["reports.bytes"] = (c["reports.bytes"], "bytes")
    m["reports.verify_s"] = (verify_s, "s")
    m["trace.wall_s"] = (sum(r["seconds"] for r in traced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    ck = import_clonekit()
    decisions = workloads.build(args.workload, args.seed, args.dir / "inputs")
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    reports = args.dir / "reports"
    start = time.perf_counter()
    passes = [run_pass(ck, decisions, reports)]
    if args.mode == "timed":
        while True:
            walls = [sum(r["seconds"] for r in p) for p in passes]
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
            passes.append(run_pass(ck, decisions, reports))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, problems, _ = check_all(ck, decisions, passes[0], passes)
        result["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_s": {"value": statistics.median(max(r["seconds"] for r in p)
                                                     for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        result["pass_walls"] = walls
    else:
        tracer = Tracer()
        tracer.install()
        traced = run_pass(ck, decisions, args.dir / "traced", tracer)
        failed, problems, verify_s = check_all(ck, decisions, traced, passes + [traced])
        result["metrics"] = trace_metrics(tracer, traced, verify_s)
        result["pass_walls"] = [sum(r["seconds"] for r in p) for p in passes + [traced]]
        passes.append(traced)
        with open(args.dir / "spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    result.update(attempted=len(decisions) * len(passes), failed=failed,
                  problems=problems, records=records(decisions, passes[-1]),
                  python=platform.python_version(), cpus=os.cpu_count())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
