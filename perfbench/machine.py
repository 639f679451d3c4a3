"""Machine state recorded around each run, for diagnosis only (not metrics)."""

from __future__ import annotations

import ctypes
import os
import platform

_BLAS_THREAD_SYMBOLS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads")


def _steal_ticks():
    """Aggregate steal ticks from the first line of /proc/stat (None if absent)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def state():
    """Load average and steal ticks, taken before and after a run."""
    return {"loadavg": os.getloadavg(), "steal_ticks": _steal_ticks()}


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return threads
    for path in sorted(p for p in paths if p.endswith(".so")):
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = fn()
                break
    return threads


def versions():
    """nproc, library versions and the BLAS thread cap of this process.

    Call after numpy and scipy are imported, so their OpenBLAS builds are loaded.
    """
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }
