"""Write ``pins.json``: the deterministic report fields of every full-size op.

    python3 perfbench/pins.py

Runs every op of every workload, for every choice of residue classes
the seed can make, in this process through ``apmoments.cli.main`` and
stores each report without the fields in ``checks.UNPINNED``.  Run it
only on the commit whose outputs are to be pinned; the checks then hold
every later commit to these values at ``checks.PIN_RTOL``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from apmoments import cli  # noqa: E402


def main() -> int:
    pins: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-pins-", dir=Path.cwd()) as work:
        for name in workloads.WORKLOADS:
            for ops in workloads.every_variant(name):
                if all(op.pin_key in pins for op in ops):
                    continue
                for op in ops:  # in order: a spill is written before it is read
                    out = Path(work) / "report.json"
                    argv = [a.replace("{work}", work) for a in op.argv] + ["--out", str(out)]
                    if cli.main(argv) != 0:
                        print(f"error: {op.pin_key} failed", file=sys.stderr)
                        return 1
                    pins[op.pin_key] = checks.pinnable(json.loads(out.read_text()))
                    print(f"pinned {op.pin_key}", file=sys.stderr)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
