"""Run the benchmark's own smoke test: its oracles and traced-replay digests."""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "perfbench" / "smoke.py"


def test_benchmark_smoke():
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
