"""Replay benchmark for audiokv: end-to-end `compare`/`simulate` ops and a
traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload prod-compare --seed 1 --seconds 40 --trace 0

Workloads: fixture-compare, prod-compare, prod-simulate (see README.md).
`--trace 0` prints the end-to-end metrics; `--trace 1` replays the same ops
layer by layer and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    # The benchmark measures the sources next to it, never an installed copy.
    if not (SRC / "audiokv" / "__init__.py").is_file():
        print(f"error: no audiokv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
