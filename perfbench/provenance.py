"""Read-only description of the machine and build a result was measured on.

Nothing here changes a setting: thread counts are read, never set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_sha256(src: Path) -> str:
    """Digest of the package sources, which identifies the build where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((src / "ccdl").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_library(numpy) -> ctypes.CDLL | None:
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _openblas(numpy) -> tuple[str, object]:
    """(version, thread count) of the OpenBLAS bundled with numpy, or "unknown"."""
    version, threads = "unknown", "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name', 'blas')} {blas.get('version', 'unknown')}"
    except (KeyError, TypeError, ValueError):
        pass
    lib = _openblas_library(numpy)
    if lib is not None:
        try:
            get_threads = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            get_threads = None
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            threads = get_threads()
    return version, threads


def collect(root: Path, workload: str, seed: int) -> dict:
    import numpy

    blas_version, blas_threads = _openblas(numpy)
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_version,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "ccdl_threads": os.environ.get("CCDL_THREADS", "unset"),
        "openblas_threads": blas_threads,
        "workload": workload,
        "seed": seed,
    }
