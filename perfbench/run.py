"""Command-line entry of the weakorder benchmark.

Run from the root of a checkout; the library is imported from its ``src``:

    python3 perfbench/run.py --workload sweep-exhaustive --seed 1 --seconds 10 --trace 0

Workloads: sweep-exhaustive, h4-sample, pointwise, h4-closure (see bench.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of one traced pass with ``--trace 1``.  Human-readable
tables come before it, and a full record (environment, self times, spans)
is written to perfbench/out/.  The exit code is 1 when a correctness gate
fails and 2 when the library sources are missing.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    # Pin the environment before numpy loads its BLAS: one worker process
    # (passed explicitly, never read from WEAKORDER_WORKERS) and one BLAS thread.
    os.environ.pop("WEAKORDER_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "weakorder" / "__init__.py").is_file():
        print(f"weakorder sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
