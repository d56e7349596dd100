"""The benchmark's own check self-tests, run as a subprocess from the
repository root: a real `xfer_verify`, `screen_sweep` and `power_points`
operation each pass the benchmark's checks, and each corruption of them is
caught."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    run = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "all check self-tests behave as expected"
