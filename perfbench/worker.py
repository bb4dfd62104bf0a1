"""One benchmark process: import ``apmoments.cli``, then run one series of subcommands.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``PYTHONPATH`` naming
the checkout's ``src``.  The job names the argv of each subcommand, the
result file and, for a traced series, the span file.  A job without ops
only measures start-up: the result holds the CLOCK_MONOTONIC instant at
which ``apmoments.cli`` was imported and its parser built, which the
parent compares with the instant it spawned this process.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _peak_rss_mib() -> float:
    # VmHWM is this process image's own peak; ru_maxrss would also carry
    # the parent's peak across fork and exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    from apmoments import cli

    cli.build_parser()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if job["ops"]:
        recorder = None
        if job["trace"]:
            import tracer

            recorder = tracer.Recorder()
            tracer.install(recorder)
        codes = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for argv in job["ops"]:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse usage errors
                codes.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception:  # keep going: a failed op is counted, not fatal
                traceback.print_exc()
                codes.append(-1)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = _peak_rss_mib()
        result["codes"] = codes
        if recorder is not None:
            recorder.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
