"""The machine and library record printed with every benchmark run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np
import scipy

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name; not exported by os


def _blas() -> tuple[str, int | None]:
    """numpy's BLAS library name and its current thread count."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return name, int(getattr(lib, symbol)())
    return name, None


def _l3_bytes() -> int | None:
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def _git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout. git looks
    for a repository at `root` only, never in the directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(root: str) -> dict:
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "git_commit": _git_commit(root),
    }
