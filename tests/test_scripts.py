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


def test_mertens_scan_gap_steady_from_cached_to_counted_decade():
    # decade 8 sums the cached sieve, decade 9 counts primes by class: the
    # gap to the main term (the O(1) constant) must not jump between routes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mertens_progression_scan.py"), "--max-decade", "9"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    gaps = {}
    for line in proc.stdout.splitlines():
        if line.startswith("class "):
            cls = line
        elif line.split() and line.split()[0] in ("100000000", "1000000000"):
            gaps.setdefault(cls, []).append(float(line.split()[-1]))
    assert len(gaps) == 4
    for cls, (gap8, gap9) in gaps.items():
        assert abs(gap9 - gap8) < 0.01, cls
