"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repo root.

Workloads run at reduced size (``--small``), so these take seconds and
check the harness, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*extra: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *extra], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workload_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracer.PER_LAYER_UNITS)


def test_seed_picks_classes_but_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = (workloads.build(name, seed) for seed in (1, 2))
        assert workloads.build(name, 1) == a
        assert sorted(op.id for op in a) == sorted(op.id for op in b)
        sizes = [sorted(tok for op in ops for tok in op.argv if tok[0].isdigit() and "e" in tok)
                 for ops in (a, b)]
        assert sizes[0] == sizes[1]


def test_every_full_size_op_is_pinned():
    pins = checks.load_pins()
    for name in workloads.WORKLOADS:
        for seed in range(8):
            assert all(op.pin_key in pins for op in workloads.build(name, seed))


@pytest.fixture(scope="module")
def lattice_series(tmp_path_factory):
    ops = workloads.build("members_lattice", 5, small=True)
    return ops, run.run_series(tmp_path_factory.mktemp("series"), ops, trace=False)


def _corrupt(series: dict, op_id: str, edit) -> dict:
    report = json.loads(series["reports"][op_id])
    edit(report)
    return {**series, "reports": {**series["reports"], op_id: json.dumps(report)}}


def test_clean_series_passes_checks(lattice_series):
    ops, series = lattice_series
    assert run.count_failures(ops, [series], None) == (0, [])


def test_corrupted_report_raises_fail_ratio(lattice_series):
    ops, series = lattice_series
    bad = _corrupt(series, "moments", lambda r: r.update(mean=r["mean"] * 1.001))
    failed, notes = run.count_failures(ops, [bad], None)
    assert failed >= 1 and any("counting oracle" in n for n in notes)
    # a report that changes between series also counts
    failed, _ = run.count_failures(ops, [series, bad], None)
    assert failed >= 1


def test_pin_mismatch_counts_as_failure(lattice_series):
    ops, series = lattice_series
    pins = {op.pin_key: checks.pinnable(json.loads(series["reports"][op.id])) for op in ops}
    assert run.count_failures(ops, [series], pins)[0] == 0
    bad = _corrupt(series, "compare", lambda r: r["f"]["mu"].__setitem__(2, r["f"]["mu"][2] * 1.01))
    failed, notes = run.count_failures(ops, [bad], pins)
    assert failed == 1 and "pin" in notes[0]


def _factorize(m: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= m:
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out + ([(m, 1)] if m > 1 else [])


@pytest.mark.parametrize("spec,complete,k,l", [
    ("omega", False, 4, 3), ("bigomega", True, 4, 1), ("invloglog", True, 3, 2),
    ("sqrtloglog", False, 1, 0), ("tab:5=1.5,7=2,default=0.25", False, 3, 1),
])
def test_counting_oracle_matches_brute_force(spec, complete, k, l):
    n = 3000
    members = range(l if l else 1, n + 1, k)
    total = 0.0
    for m in members:
        for p, a in _factorize(m):
            f = float(checks.prime_values(spec, np.array([p]))[0])
            total += a * f if complete else f
    assert checks.member_count(k, l, n) == len(members)
    assert checks.Oracle().mean(spec, complete, k, l, n) == pytest.approx(total / len(members), rel=1e-12)


def test_self_time_subtracts_children():
    c = lambda **kw: {"call": 1, **kw}
    spans = [
        ["cli.main", "cli", 0.0, 10.0, -1, c(report_bytes=7)],
        ["moments.empirical_moments", "moments", 1.0, 9.0, 0, c(spill_bytes=0)],
        ["arith_fn.iter_progression_values", "arith_fn", 2.0, 5.0, 1, c(dataset="d", out=4)],
        ["arith_fn.values_at", "arith_fn", 3.0, 4.0, 2, c(**{"in": 3})],
        ["sieve.primes_upto_monolithic", "sieve", 4.0, 4.5, 2, c(out=3)],
        ["moments.add_batch", "moments", 6.0, 8.0, 1, c(**{"in": 4})],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["moments.self_s"] == pytest.approx(3.0 + 2.0)
    assert m["arith_fn.self_s"] == pytest.approx(1.5 + 1.0)
    assert m["sieve.self_s"] == pytest.approx(0.5) and m["sieve.primes"] == 3
    assert m["arith_fn.sweeps"] == 1 and m["arith_fn.members"] == 4
    assert m["arith_fn.members_per_s"] == pytest.approx(4 / 3.0)
    assert m["moments.values"] == 4 and m["cli.report_bytes"] == 7


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "members_lattice", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "apmoments" in proc.stderr
