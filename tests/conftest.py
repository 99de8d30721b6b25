"""Shared fixtures."""

import math
import os

import pytest

from ccdl import channel


@pytest.fixture
def trial_workers(monkeypatch):
    """``trial_workers(n)`` runs later seeded maps on n trial threads; n = 1 keeps them serial.

    It forces ``channel.seeded_map``'s size gate open (or shut) and reports n
    usable CPUs to ``_parallel.map_threads``, whatever the draw size and host.
    """

    def set_workers(n: int) -> None:
        monkeypatch.setattr(channel, "_THREAD_MIN_Q", 0 if n > 1 else math.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_workers
