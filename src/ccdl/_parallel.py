"""Ordered maps for sweeps and seeded trial loops, and numpy's bundled OpenBLAS; the benchmark's tracer hooks ``map_ordered``.

``map_ordered`` runs on the calling thread: Python and small numpy calls hold the interpreter lock.
``map_threads``, for LAPACK-bound items (``channel.seeded_map`` trials whose inverse work reaches
``channel._THREAD_MIN_WORK``), runs a thread per CPU, the calling thread included; each takes the next item as
it frees, so none idles while another works through a fixed share, and the results come back in item order:
the serial output.  With one CPU or no settable OpenBLAS it is ``map_ordered``.  ``one_blas_thread`` holds
numpy's OpenBLAS at one thread: its own threads made the trial threads slower than serial, and after each
pooled call its idle worker spin-waits on a CPU that the trial threads need.  ``cholesky_lapack`` binds the
same library's LAPACKE ``zpotrf`` and ``zpotri`` by ctypes, for ``precoding._regularized_inverse``: numpy's own
linear algebra has no Hermitian inverse, and scipy is no runtime dependency.  Where numpy bundles no such
library (numpy 1.x wheels name theirs otherwise), both bindings are None and ccdl runs on numpy alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path


def map_ordered(fn, items) -> list:
    """Apply fn to each item in order, on the calling thread."""
    return [fn(x) for x in items]


def _bundled(*names):
    """The named functions of numpy's bundled OpenBLAS, or None where it or any name is missing.

    numpy 2 wheels bundle ``libscipy_openblas64_*.so``; numpy 1.x wheels name their OpenBLAS otherwise, and
    there ccdl runs without it.
    """
    import numpy as np  # here, its only use, so that the closed-form CLI never imports numpy

    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            lib = ctypes.CDLL(str(path))  # releases the interpreter lock around each call
            return tuple(getattr(lib, name) for name in names)
        except (OSError, AttributeError):
            continue
    return None


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None (its ``*_local`` setter is process-wide too)."""
    blas = _bundled("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
    if blas is not None:
        get, set_ = blas
        get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    return blas


@functools.cache
def cholesky_lapack():
    """(zpotrf, zpotri) of numpy's bundled LAPACKE, each ``f(layout, uplo, n, address, lda) -> info``, or None.

    ``precoding._regularized_inverse`` inverts Hermitian positive-definite matrices in place with them.
    """
    lapack = _bundled("scipy_LAPACKE_zpotrf64_", "scipy_LAPACKE_zpotri64_")
    for fn in lapack or ():
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
        fn.restype = ctypes.c_int64
    return lapack


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread inside the ``with`` block and restore its previous count after, even on error.

    The pin is process-wide.  Without a settable OpenBLAS, or where the count already is 1 (as inside
    another pin, where each Cholesky inverse of a seeded pass runs), this does nothing.
    """
    blas = _openblas()
    previous = None if blas is None else blas[0]()
    if previous in (None, 1):
        yield
        return
    set_ = blas[1]
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def map_threads(fn, items) -> list:
    """``map_ordered`` on a thread per CPU, each taking the next item in order as it frees.

    Once a call raises, no later item is started; the lowest-indexed item that
    raised re-raises after all threads stop, so the results and the error are
    the serial loop's.  Callers hold :func:`one_blas_thread` around it.
    """
    items = list(items)
    n = min(len(os.sched_getaffinity(0)), len(items)) if _openblas() else 1  # a settable OpenBLAS implies Linux
    if n < 2:
        return map_ordered(fn, items)
    results, failed, lock, order = [None] * len(items), {}, threading.Lock(), iter(range(len(items)))

    def run() -> None:
        while True:
            with lock:
                i = next(order, None)
                if i is None or failed:
                    return
            try:
                (results[i],) = map_ordered(fn, items[i : i + 1])  # so the benchmark's tracer sees each item
            except BaseException as exc:  # re-raised below, on the calling thread
                with lock:
                    failed[i] = exc
                return

    workers = []
    try:
        for _ in range(1, n):
            worker = threading.Thread(target=run)
            worker.start()
            workers.append(worker)
        run()
    finally:
        for worker in workers:
            worker.join()
    if failed:
        raise failed[min(failed)]
    return results
