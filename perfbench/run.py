"""rasterquery benchmark: seeded workloads in a closed loop, checked against
the brute-force oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload points_inmem --seed 1 --seconds 20 --trace 0

One process and one client run the workload's fixed query list again and
again, each query issued when the previous one returns, until ``--seconds``
have passed; the pass in progress is always finished. The program is
imported from ``src/`` next to this directory, never from site-packages.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``. After the
timed loop, each distinct query is checked once against ``oracle.py``, and
the known-defect probes run on small fixed inputs; both count in
``failed_ops_ratio``, but only the timed queries count in the ``attempted``
and ``failed`` fields of the result line.

``--trace 1`` prints the per-layer metrics instead: the set-up runs once
under the tracer, one untimed pass warms the program's lazy caches, then
untraced and traced passes alternate. Per-layer numbers are per traced
pass; ``trace.overhead.<family>_ms`` is the median traced minus the median
untraced latency of a family. Spans, per-query
self times and the program's own ``TimingReport`` columns are written to
``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread for numpy and any BLAS it loads; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import rasterquery from this checkout's src/ or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rasterquery
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rasterquery from {src}: {exc}")
    if not Path(rasterquery.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: rasterquery resolved to {rasterquery.__file__}, not {src}")


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    import harness
    sys.exit(harness.main())
