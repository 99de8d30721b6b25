"""Ordered maps for sweeps and seeded trial loops; the benchmark's tracer hooks ``map_ordered``.

``map_ordered`` runs on the calling thread: Python and small numpy calls hold the interpreter lock.
``map_blocks``, for LAPACK-bound items (``channel.seeded_map`` at Q >= ``channel._THREAD_MIN_Q``), runs one
contiguous block per CPU, block 0 on the calling thread, and joins them in order: the serial output.  It pins
numpy's OpenBLAS to one thread (its own threads made the blocks slower than serial) and restores the
process-wide count after; with one CPU or no settable OpenBLAS it is ``map_ordered``.
"""

from __future__ import annotations

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


def map_blocks(fn, items) -> list:
    """``map_ordered`` over a block per CPU; once all stop, the first block that raised re-raises, as serially."""
    items, blas = list(items), _openblas()
    n = min(len(os.sched_getaffinity(0)), len(items)) if blas else 1  # blas implies a Linux wheel
    if n < 2:
        return map_ordered(fn, items)
    parts = [items[len(items) * b // n : len(items) * (b + 1) // n] for b in range(n)]

    def run(b: int) -> None:
        try:
            parts[b] = map_ordered(fn, parts[b])
        except BaseException as exc:  # re-raised below, on the calling thread
            parts[b] = exc

    get, set_ = blas
    previous, workers = get(), []
    set_(1)
    try:
        for b in range(1, n):
            worker = threading.Thread(target=run, args=(b,))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
        set_(previous)
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    return [y for part in parts for y in part]
