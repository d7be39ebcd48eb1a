"""The benchmark's smoke run as a test.

`perfbench/` reaches into the package by name: its tracer wraps listed
functions, its checks read trace fields, and its smoke run tampers with
`ledger.cumulative`.  A change under `src/` that breaks one of these fails
here.  The run writes only to `perfbench/results/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
