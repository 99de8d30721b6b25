"""The ordered map that sweeps and seeded Monte Carlo trial loops run through.

Items run in order on the calling thread.  Each item is Python plus small
numpy calls that hold the interpreter lock, so a thread pool here only
passes the lock back and forth: on a 2-vCPU host two threads ran a sweep
1.2x and a trial loop 1.4-3x slower than one.  The benchmark's tracer
hooks this function to attribute the time of each item to the layer that
mapped it.
"""

from __future__ import annotations


def map_ordered(fn, items) -> list:
    """Apply fn to each item in order, on the calling thread."""
    return [fn(x) for x in items]
