"""Record of the machine, the numeric stack and the thread settings of a run."""

import ctypes
import os
import platform
import sys
from pathlib import Path

#: Environment variables read by the BLAS and OpenMP runtimes numpy may use.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit(root: Path):
    """Commit checked out at ``root``, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def record(root: Path) -> dict:
    import numpy as np  # after the caller has fixed the thread variables

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
    }
