"""Benchmark of the qdiscord pipelines.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the run. Workloads, metrics and bounds are
declared in ``BENCHMARK.json`` at the root of the checkout.
"""

import os
import sys
from pathlib import Path

#: BLAS/OpenMP threads per process. The matrices are at most about 100 x 100
#: and the pipelines are serial Python loops around them, so a second
#: thread only adds noise on a shared two-core machine. Must not exceed nproc.
BLAS_THREADS = 1


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:0] = [str(here), str(root / "src")]
    from environment import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the benchmark or the qdiscord package: {exc}", file=sys.stderr)
        return 2
    return harness.main(argv, root)


if __name__ == "__main__":
    sys.exit(main())
