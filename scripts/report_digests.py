#!/usr/bin/env python3
"""One SHA-256 per report of every benchmark op, to check that a change
leaves every report byte-identical.

    python3 scripts/report_digests.py [--small]

Runs every op of every workload, for every choice of residue classes the
benchmark's seed can make (``perfbench/workloads.every_variant``), in
this process through ``apmoments.cli.main``, and prints a header and one
line per report: its digest, the workload, the variant and the op.  The
scratch directory that holds a workload's spill files is written as
``{work}`` before hashing, so two runs print the same lines.  ``--small`` runs the
benchmark's small sizes, one variant per workload (``build(name, 1,
small=True)``).  Run it on two checkouts and compare the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402
from apmoments import cli  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--small", action="store_true", help="the benchmark's small sizes")
    args = ap.parse_args()
    print("sha256 workload variant op")
    with tempfile.TemporaryDirectory(prefix="report-digests-") as work:
        for name in workloads.WORKLOADS:
            variants = ([workloads.build(name, 1, small=True)] if args.small
                        else workloads.every_variant(name))
            for i, ops in enumerate(variants):
                for op in ops:  # in order: a spill is written before it is read
                    report = io.StringIO()
                    with contextlib.redirect_stdout(report):
                        code = cli.main([a.replace("{work}", work) for a in op.argv])
                    if code != 0:
                        print(f"error: {op.pin_key} exited {code}", file=sys.stderr)
                        return 1
                    text = report.getvalue().replace(work, "{work}")
                    print(hashlib.sha256(text.encode()).hexdigest(), name, i, op.id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
