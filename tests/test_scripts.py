"""Smoke tests: each experiment script runs at a small size and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("erdos_kac_table.py", ["--decades", "3,4"], "omega over 1 mod 4, normalization=sqrt_mean"),
        ("model_vs_empirical.py", ["--n", "1e4"], "fn=omega ext=strong over 1 mod 4, n=10000"),
        ("mertens_progression_scan.py", ["--max-decade", "4"], "fn=const:1  (start prime 2)"),
    ],
)
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
