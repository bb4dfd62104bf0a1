"""Steadiness mode: run workloads under several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads members_lattice,primes_model --runs 10 --first-seed 1

Runs ``run.py`` once per seed, one run at a time, with the run length
from ``BENCHMARK.json``.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics also show their bound from ``BENCHMARK.json`` and whether the
spread stays below a third of it; counts of the traced run
(``--trace 1``) show whether they repeat exactly.  ``--json FILE``
also writes every value, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from run import HERE, ROOT


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values),
            "repeats_exactly": len(set(values)) == 1}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write all values to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    everything = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1},"
              f" fail ratio {failed}/{attempted}")
        summary = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summary[name] = {**summarize(values), "unit": first["unit"], "values": values}
            line = (f"  {name:28s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
            if name in bounds:
                ok = s["spread"] < bounds[name] / 3
                steady &= ok or name == "setup_s"
                line += f"  bound {bounds[name]}  {'steady' if ok else 'NOT STEADY'}"
            elif first["unit"] == "count":
                line += "  repeats exactly" if s["repeats_exactly"] else "  varies"
            print(line)
        everything[workload] = {"failed": failed, "attempted": attempted, "metrics": summary}
        sys.stdout.flush()
    if args.json:
        record = {"machine": run.machine(), "run_seconds": spec["run_seconds"],
                  "trace": args.trace, "workloads": everything}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
