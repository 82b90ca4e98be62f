"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Runs all workloads once untraced and once traced and checks that each
reports every metric BENCHMARK.json names, with its unit, that no operation
failed, and that the traced run emitted the same streams as the untraced
one.  Checks the bare metric names of a one-workload run, the form the
benchmark is run in, and that the benchmark refuses to run in a directory
holding only BENCHMARK.json and its own files.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*COMMAND, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def run_tiny(*args: str) -> tuple[list[dict], dict]:
    """The per-workload detail lines and the result line of a tiny run."""
    proc = run_benchmark("--seed", "3", "--tiny", *args)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    *details, result = records
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    return details, result


def test_workloads_report_every_metric_and_replay_traced():
    names = [w["name"] for w in SPEC["workloads"]]
    digests = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        details, result = run_tiny("--trace", str(trace))
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {f"{w}:{m['name']}": m["unit"] for w in names for m in SPEC[kind]}
        assert [d["workload"] for d in details] == names
        for d in details:
            assert d["error_share"] == 0, d["workload"]
            if trace:
                assert d["traced_digests"] == d["digests"], d["workload"]
        digests[trace] = [d["digests"] for d in details]
    assert digests[0] == digests[1]


def test_one_workload_reports_bare_metric_names():
    _, result = run_tiny("--workload", "general-tree", "--trace", "0")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for test in (test_workloads_report_every_metric_and_replay_traced,
                 test_one_workload_reports_bare_metric_names,
                 test_refuses_to_run_without_the_program):
        test()
        print(f"PASS {test.__name__}")
