"""Smoke test of the demo scripts the README documents: each runs from the
repository root, exits 0 and ends with its summary line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAST_LINE = {
    "delivery_comparison.py":
        r"steady-state mean: icn \d+\.\d{3} ms vs cdn-only \d+\.\d{3} ms",
    "publish_times.py":
        r"marginal cost: \d+\.\d{6} ms/byte \(\d+\.\d Mbit/s effective uplink\)",
}


@pytest.mark.parametrize("script", sorted(LAST_LINE))
def test_demo_runs(script):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(LAST_LINE[script], done.stdout.splitlines()[-1])
