"""Smoke tests: each experiment script runs at a small size and prints its header."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from apmoments import counting
from apmoments.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("erdos_kac_table.py", ["--decades", "3,4"], "omega over 1 mod 4, normalization=sqrt_mean"),
        ("model_vs_empirical.py", ["--n", "1e4"], "fn=omega ext=strong over 1 mod 4, n=10000"),
        ("mertens_progression_scan.py", ["--max-decade", "4"], "fn=const:1  (start prime 2)"),
        ("report_digests.py", ["--small"], "sha256 workload variant op"),
    ],
)
def test_script_runs(script, args, header):
    assert _run(script, *args).splitlines()[0] == header


def test_model_vs_empirical_prints_the_moments_subcommand(capsys):
    # the empirical column is `moments`' summary, to the script's 6 decimals
    out = _run("model_vs_empirical.py", "--n", "1e4")
    column = {line.split()[0]: line.split()[1] for line in out.splitlines()[2:]}
    assert main(["moments", "--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e4",
                 "--umax", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    want = [report["mean"], *report["mu"]]
    assert column == {name: f"{v:.6f}" for name, v in zip(["mean", "mu_2", "mu_3", "mu_4"], want)}


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_digests_repeat():
    # one digest per op of every workload, the same in a second process,
    # although each run spills into a directory of its own
    first = _run("report_digests.py", "--small")
    assert len(first.splitlines()) == 1 + 3 + 4 + 21
    assert _run("report_digests.py", "--small") == first


def test_mertens_scan_gap_steady_from_sieved_to_counted_decade():
    # decade 7 sieves every prime (counting does not pay at 10^7 mod 3 or
    # mod 4), decade 8 counts the primes past 10^6 by class: the gap to the
    # main term (the O(1) constant) must not jump between routes
    gaps = {}
    for line in _run("mertens_progression_scan.py", "--max-decade", "8").splitlines():
        if line.startswith("class "):
            cls = line
        elif line.split() and line.split()[0] in ("10000000", "100000000"):
            gaps.setdefault(cls, []).append(float(line.split()[-1]))
    assert len(gaps) == 4
    for cls, (gap7, gap8) in gaps.items():
        assert abs(gap8 - gap7) < 0.01, cls


def test_mertens_scan_builds_each_table_once_per_decade(monkeypatch, capsys):
    # 10^8 is counted for both moduli (10^7 is outside the cost rule): one
    # mod 4 and one mod 3 table
    builds, build = [], counting.class_tables

    def spy(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(counting, "class_tables", spy)
    monkeypatch.setattr(sys, "argv", ["mertens_progression_scan.py", "--max-decade", "8"])
    runpy.run_path(str(ROOT / "scripts" / "mertens_progression_scan.py"), run_name="__main__")
    assert builds == [(10**8, 4, 1), (10**8, 3, 1)]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("class ")] == [
        "class 1 mod 4", "class 3 mod 4", "class 1 mod 3", "class 2 mod 3"]
    assert sum(line.split()[:1] == ["100000000"] for line in lines) == 4
