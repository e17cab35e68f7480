"""Facts about the machine and libraries a run measured, printed with every result.

threadpoolctl is not assumed: the effective OpenBLAS thread count is read
through ctypes from the OpenBLAS libraries bundled with numpy and scipy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


def _blas_build(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _openblas_runtime(package_dir: str) -> list[dict]:
    """Thread count and config string of each OpenBLAS bundled in a wheel's .libs dir."""
    found = []
    for path in sorted(glob.glob(os.path.join(package_dir + ".libs", "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for key, names in (("threads", ("get_num_threads", "get_num_threads64_")),
                           ("config", ("get_config", "get_config64_"))):
            for prefix in ("scipy_openblas_", "openblas_"):
                fn = next((getattr(lib, prefix + n) for n in names if hasattr(lib, prefix + n)), None)
                if fn is not None:
                    fn.restype = ctypes.c_int if key == "threads" else ctypes.c_char_p
                    fn.argtypes = []
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(entry)
    return found


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(root: Path) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "openblas_runtime": (
            _openblas_runtime(os.path.dirname(numpy.__file__))
            + _openblas_runtime(os.path.dirname(scipy.__file__))
        ),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "git_commit": _git_commit(root),
    }
