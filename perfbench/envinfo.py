"""The environment record stored with every benchmark result.

Two results are comparable only when taken with the same CPU count,
interpreter, NumPy, BLAS library and BLAS thread count; the record
makes a mismatch visible.
"""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Dict, Optional

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

#: environment variables that set BLAS / OpenMP thread counts
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def blas_library() -> Dict[str, Optional[str]]:
    """Name and version of the BLAS NumPy was built against."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _loaded_blas_paths():
    """Shared objects mapped into this process that look like BLAS."""
    paths = []
    with open("/proc/self/maps") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) < 6 or fields[5] in paths:
                continue
            if "blas" in os.path.basename(fields[5]).lower():
                paths.append(fields[5])
    return paths


def blas_threads() -> Optional[int]:
    """The thread count the loaded BLAS will use, or ``None`` when the
    library exposes no known query."""
    import numpy  # noqa: F401  (maps the BLAS into the process)

    for path in _loaded_blas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root: str) -> str:
    """The checked-out commit read from ``.git``, or ``"unknown"`` when
    the tree is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    """CPU, interpreter, NumPy/BLAS and commit facts of this process."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "thread_env": {
            name: os.environ[name] for name in THREAD_ENV if name in os.environ
        },
        "git_commit": git_commit(root),
    }
