"""Benchmark of clonekit's certified decisions, timed end to end and layer by layer.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record of every decision's verdict, exit code, report digest and
counts to ``perfbench/out/<workload>/records-seed<seed>-trace<0|1>.json``.

Compare two records, failing on any changed verdict, count or report byte:

    python3 perfbench/run.py --diff RECORD_A RECORD_B

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Fresh processes that only set up, so that setup_s is a median of several.
SETUP_PROBES = 8
# Every process of one run has to end within this many seconds.
RUN_LIMIT_S = 170


def worker(workload: str, seed: int, mode: str, seconds: float, out: Path,
           deadline: float) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--dir", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out = OUT / workload
    shutil.rmtree(out / f"run-trace{int(trace)}", ignore_errors=True)
    base = out / f"run-trace{int(trace)}"
    setups = []

    def probe_setup(count: int):
        for _ in range(0 if trace else count):
            setups.append(worker(workload, seed, "setup", 0, base / f"setup{len(setups)}",
                                 deadline)["setup_s"])

    # probes before and after the timed process see different phases of the host
    probe_setup(SETUP_PROBES // 2)
    res = worker(workload, seed, "trace" if trace else "timed", seconds, base / "main",
                 deadline)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = res["metrics"]
    if not trace:
        setups.append(res["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "python": res["python"], "cpus": res["cpus"], "pass_walls": res["pass_walls"],
              "setup_samples": setups, "metrics": metrics, "problems": res["problems"],
              "decisions": res["records"]}
    path = out / f"records-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, problems in res["problems"].items():
        for p in problems:
            print(f"FAILED {name}: {p}", file=sys.stderr)
    print(f"record: {path}", file=sys.stderr)
    # every decision whose check failed is counted in "failed"; "correct"
    # speaks of the others, which passed every check
    return {"correct": True, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def diff(path_a: Path, path_b: Path) -> int:
    """Compare two records decision by decision.  Keys that only a traced run
    records are compared when both records have them."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["workload"] != b["workload"]:
        print(f"different workloads: {a['workload']} vs {b['workload']}")
        return 1
    da = {d["name"]: d for d in a["decisions"]}
    db = {d["name"]: d for d in b["decisions"]}
    changes = [f"{n}: only in {path_a}" for n in da.keys() - db.keys()]
    changes += [f"{n}: only in {path_b}" for n in db.keys() - da.keys()]
    if a["seed"] != b["seed"] and a["workload"] == "classify":
        changes.append("classify draws its inputs from the seed: compare equal seeds")
    compared = set()
    for name in sorted(da.keys() & db.keys()):
        for key in sorted(da[name].keys() & db[name].keys()):
            compared.add(key)
            if da[name][key] != db[name][key]:
                changes.append(f"{name}: {key} {da[name][key]!r} -> {db[name][key]!r}")
    for line in changes:
        print(line)
    print(f"{len(da)} decisions, compared {', '.join(sorted(compared))}: "
          f"{len(changes)} change(s)")
    return 1 if changes else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--diff", nargs=2, metavar="RECORD", type=Path)
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "clonekit" / "__init__.py").is_file():
        print(f"no clonekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
