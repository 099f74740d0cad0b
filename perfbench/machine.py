"""Pinned environment of a benchmark run, and its description.

``pin`` must run before numpy is imported: the BLAS reads its thread count
once, at load.  Subprocesses inherit the same settings through the
environment.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin(src: Path) -> None:
    """Fix the BLAS thread count and put ``src`` first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(src))


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted at ``root``; None when ``root`` is not
    the top of a git work tree (a plain source checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version")}


def describe(root: Path, src: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
    }
