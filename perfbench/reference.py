"""The host-speed reference that the benchmark's timings are scaled by.

On a shared VM the interpreter's speed moves by half or more for tens of
seconds at a time as other tenants come and go, far more than a change to
nomfix would.  The benchmark therefore times, between requests, a fixed
piece of pure-Python work that uses no nomfix code: reads of attributes
scattered over a heap of a few megabytes.  Like nomfix's term walks, it
runs from memory that the previous request has pushed out of the nearest
caches.  A walk over a small tree that stays in cache was tried first: it
slowed down more than nomfix's requests when other tenants were busy, and
so over-corrected.  A request's time is scaled by

    NOMINAL_S / (median reference time around the request)

so a timing reads as it would on a host where one reference walk takes
NOMINAL_S.  The reference code is the same on both sides of a comparison,
so a change to nomfix moves the scaled times as it moves the raw ones; the raw figures are kept in the run's details line.
"""

from __future__ import annotations

import random
import statistics
import time

# A round figure close to the time one reference walk takes on the 2-vCPU
# Xeon VM the benchmark was tuned on, in a calm phase.
NOMINAL_S = 0.0005
# Readings on each side of a request that make up its local reference.
WINDOW = 15


class _Item:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


# A heap of small objects in shuffled order and a fixed list of scattered
# positions in it: each walk reads and hashes the names at those positions,
# so that most reads miss the nearest caches, as nomfix's term walks do.
_POOL_SIZE = 40000
_READS = 6000
_POOL = [_Item(f"x{i}") for i in range(_POOL_SIZE)]
random.Random(5).shuffle(_POOL)
_POSITIONS = [random.Random(6).randrange(_POOL_SIZE) for _ in range(_READS)]


def _read() -> int:
    h = 0
    for j in _POSITIONS:
        h ^= hash(_POOL[j].name)
    return h


_EXPECTED = _read()


def walk() -> float:
    """Seconds one reference walk takes.  It allocates no container objects,
    so the garbage nomfix leaves is never collected on its clock."""
    start = time.perf_counter()
    h = _read()
    elapsed = time.perf_counter() - start
    if h != _EXPECTED:
        raise AssertionError("reference walk is wrong")
    return elapsed


class Meter:
    """Reference readings taken during a run, in order."""

    def __init__(self):
        self.readings: list[float] = []

    def read(self, times: int = 1) -> None:
        for _ in range(times):
            self.readings.append(walk())

    def scales(self) -> list[float]:
        """scales()[p] is the factor for a request timed after p readings:
        NOMINAL_S over the median of the WINDOW readings on each side."""
        r = self.readings
        if not r:
            raise ValueError("no reference readings")
        out = []
        for p in range(len(r) + 1):
            lo, hi = max(0, p - WINDOW), min(len(r), p + WINDOW)
            out.append(NOMINAL_S / statistics.median(r[lo:hi]))
        return out

    def median(self) -> float:
        return statistics.median(self.readings)

