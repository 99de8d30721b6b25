"""Ordered maps for sweeps and seeded trial loops, and the OpenBLAS pin; the benchmark's tracer hooks ``map_ordered``.

``map_ordered`` runs on the calling thread: Python and small numpy calls hold the interpreter lock.
``map_threads``, for LAPACK-bound items (``channel.seeded_map`` at Q >= ``channel._THREAD_MIN_Q``), runs a
thread per CPU, the calling thread included; each takes the next item as it frees, so none idles while another
works through a fixed share, and the results come back in item order: the serial output.  With one CPU or no
settable OpenBLAS it is ``map_ordered``.  ``one_blas_thread`` holds numpy's OpenBLAS at one thread: its own
threads made the trial threads slower than serial, and after each pooled call its idle worker spin-waits on a
CPU that the trial threads need.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np


def map_ordered(fn, items) -> list:
    """Apply fn to each item in order, on the calling thread."""
    return [fn(x) for x in items]


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None (its ``*_local`` setter is process-wide too)."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread inside the ``with`` block and restore its previous count after, even on error.

    The pin is process-wide.  Without a settable OpenBLAS this does nothing.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    previous = get()
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
