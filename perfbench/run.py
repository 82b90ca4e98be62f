"""Wall-clock benchmark of approxenum: two workloads through the library API.

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1             # every workload, per-layer metrics
    python3 perfbench/run.py --workload local-iso --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --tiny                # smoke-test sizes, 0.5 s per workload

Each workload runs in a fresh single-threaded process (``workload.py``) that
builds its inputs from ``--seed``, measures for ``--seconds`` and checks its
outputs against oracles that share no cache with the program.  Metric names
and units come from ``BENCHMARK.json``; ``README.md`` in this directory says
what each one measures.

Output, per workload: a table of metrics with units, then one JSON line of
run detail (environment, stream digests, tail percentiles with their sample
counts, ``error_share``).  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Its metric names are
the bare names of ``BENCHMARK.json`` when one workload runs, and
``<workload>:<metric>`` when all run, because the names repeat across
workloads.  A workload process that dies or overruns counts every operation
it planned as failed.

Exits with code 2, printing no result, when the checkout lacks the
program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workload.py"
SOURCES = ROOT / "src" / "approxenum" / "__init__.py"
SPEC = ROOT / "BENCHMARK.json"
RUN_LIMIT_S = 170  # a run must end within 180 s
TINY_SECONDS = 0.5


def environment() -> dict:
    commit = "unknown"  # a checkout without .git, or git missing
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


def run_workload(name: str, args, timeout: float) -> dict:
    """The worker's result, or a result that fails everything it planned."""
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    planned, result, why = 1, None, ""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
        stdout, why = proc.stdout, f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        stdout, why = exc.stdout or "", f"timed out after {timeout:.0f} s"
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if "plan" in record:
            planned = max(1, record["plan"])
        elif "correct" in record:
            result = record
    if result is None:
        return {"correct": False, "attempted": planned, "failed": planned, "metrics": {},
                "detail": {"died": why}}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds, "
                             f"or {TINY_SECONDS} with --tiny)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not SOURCES.is_file() or not SPEC.is_file():
        print(f"perfbench: {SOURCES} or {SPEC} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads} or all")
    if args.seconds is None:
        args.seconds = TINY_SECONDS if args.tiny else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()

    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for index, name in enumerate(names):
        remaining = RUN_LIMIT_S * (index + 1) - (time.monotonic() - started)
        result = run_workload(name, args, timeout=max(remaining, 1.0))
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing and result["correct"]:
            result["correct"] = False
            result["failed"] += 1
            result["attempted"] += 1
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in result["metrics"]}
        for metric, entry in metrics.items():
            print(f"{name:20} {metric:36} {entry['value']:>16.6g} {entry['unit']}")
        print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                          "env": env, **result.get("detail", {}), "missing_metrics": missing}))
        results[name] = {"correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics}

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
