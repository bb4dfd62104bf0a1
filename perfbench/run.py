"""Run one benchmark workload of ``apmoments`` and print its metrics.

    python3 perfbench/run.py --workload members_lattice --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Each series of the workload's
subcommands runs in a fresh single-threaded Python process that calls
``apmoments.cli.main(argv)`` with ``--out`` to a scratch file, one
subcommand after the other (a closed loop with one client).  Series
repeat for about ``--seconds``.  After that window every report is
checked against the oracles in ``checks.py``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median series
time), ``setup_s`` (median time from spawning a process until
``apmoments.cli`` is imported and its parser built, over the series
processes and two start-up-only processes before each series) and ``peak_rss_mb``
(median peak resident set of a series process).  ``--trace 1``
alternates untraced and traced series and reports the per-layer metrics
of ``tracer.py``, with the tracing overhead beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the fail ratio: subcommands that exited non-zero, wrote
a report that differs between series, or failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES_PER_SERIES = 2
PROCESS_TIMEOUT_S = 150
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed subcommand)."""


def machine() -> dict:
    """The hardware and software the numbers were measured on."""
    info = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = int(next(ln for ln in fh if ln.startswith("MemTotal")).split()[1])
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip())
        info["caches"] = caches
    except (OSError, StopIteration, IndexError):
        pass  # a partial description is still worth recording
    return info


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(work: Path, ops: list[list[str]], trace: bool) -> dict:
    """Start one worker process, wait for it, and return its result."""
    job = {"ops": ops, "trace": trace, "result": str(work / "result.json"),
           "spans": str(work / "spans.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    for stale in (job["result"], job["spans"]):
        Path(stale).unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(Path(job["result"]).read_text())
    result["setup_s"] = result["ready"] - started
    result["stderr"] = proc.stderr
    if trace:
        result["spans"] = json.loads(Path(job["spans"]).read_text())
    return result


def run_series(work: Path, ops: list[workloads.Op], trace: bool) -> dict:
    outs = {op.id: work / f"{op.id}.json" for op in ops}
    for path in outs.values():
        path.unlink(missing_ok=True)
    argvs = [[a.replace("{work}", str(work)) for a in op.argv] + ["--out", str(outs[op.id])]
             for op in ops]
    result = spawn(work, argvs, trace)
    result["reports"] = {op_id: path.read_text() if path.exists() else None
                         for op_id, path in outs.items()}
    return result


def count_failures(ops: list[workloads.Op], series: list[dict], pins: dict | None) -> tuple[int, list[str]]:
    """Failed (series, op) pairs and a description of each problem."""
    first = series[0]["reports"]
    parsed = {op_id: json.loads(text) for op_id, text in first.items() if text is not None}
    oracle = checks.Oracle()
    bad_op = {op.id: checks.check_op(op, parsed, oracle, pins) for op in ops}
    failed, notes = 0, []
    for n, s in enumerate(series):
        for op, code in zip(ops, s["codes"]):
            problems = list(bad_op[op.id])
            if code != 0:
                problems.append(f"exit code {code}")
            if s["reports"][op.id] != first[op.id]:
                problems.append("report differs from the first series")
            if problems:
                failed += 1
                notes.append(f"series {n} op {op.id}: " + "; ".join(problems))
    return failed, notes


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    ops = workloads.build(name, seed, small)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        probes: list[dict] = []
        series: list[dict] = []
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            if not trace:  # spread start-up probes over the window, like the series
                probes += [spawn(work, [], False) for _ in range(SETUP_PROBES_PER_SERIES)]
            series.append(run_series(work, ops, trace and len(series) % 2 == 1))
            kinds = {bool(s.get("spans")) for s in series}
            # stop when another series would end more than half its length late
            late = time.monotonic() + (time.monotonic() - started) / 2 - deadline
            if (not trace or len(kinds) == 2) and late > 0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, notes = count_failures(ops, series, None if small else checks.load_pins())
    for s in series:
        if any(code != 0 for code in s["codes"]):
            print(s["stderr"][-4000:], file=sys.stderr)
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)

    plain = [s for s in series if not s.get("spans")]
    lines = [f"workload {name}, seed {seed}, {len(series)} series of {len(ops)} subcommands"]
    if trace:
        traced = [s for s in series if s.get("spans")]
        per_series = [tracer.layer_metrics(s["spans"]) for s in traced]
        values = {key: statistics.median(m[key] for m in per_series) for key in per_series[0]}
        values["process.cpu_s"] = statistics.median(s["cpu_s"] for s in plain)
        values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                      - statistics.median(s["wall_s"] for s in plain))
        units = tracer.PER_LAYER_UNITS
        lines += [f"{key:28s} {values[key]:.6g} {units[key]}" for key in units]
    else:
        samples = {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": [s["setup_s"] for s in probes + plain],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        values = {key: statistics.median(v) for key, v in samples.items()}
        units = END_TO_END_UNITS
        lines += [f"{key:12s} {values[key]:.6g} {units[key]}  (median; {_spread(samples[key])})"
                  for key in units]
    attempted = len(series) * len(ops)
    lines.append(f"fail_ratio   {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    lines.append("machine " + json.dumps(machine(), sort_keys=True))
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, no pinned outputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "apmoments" / "cli.py").is_file():
        print(f"error: no apmoments sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
