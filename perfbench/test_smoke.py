"""Smoke test of the benchmark: every workload once at a tiny size.

Run from the repository root with  python3 -m pytest perfbench/test_smoke.py
It checks that the printed metric names match BENCHMARK.json, that no
operation of a round fails, and that the known CLI input defects (ROADMAP
item 5) fail for their recorded reasons.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("smoke ") == 8
