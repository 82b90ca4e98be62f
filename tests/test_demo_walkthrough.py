"""scripts/demo_walkthrough.py drives every library surface; run it end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_walkthrough_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_walkthrough.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "exact answers: [(25, 28)]" in proc.stdout.splitlines()
    assert {p.name for p in tmp_path.iterdir()} == {"schema.txt", "family.db", "demo.query"}
