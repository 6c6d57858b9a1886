"""A fixed block of pure-Python work that gauges the machine's speed.

The benchmark runs on shared hosts whose speed drifts over minutes: a
neighbour's load can slow every Python operation by half for a whole
run.  The block below does the kind of work stampset's small-set paths
do (small integer sets built by comprehension, bitmask walks building
tuples and dicts, integer arithmetic) but never touches the package, so
a change to stampset cannot change its time.  Timing it between a run's
passes tells how fast the machine was during that run, and scaling the
run's times by ``REFERENCE_BLOCK_S / median(block times)`` reports them
at one reference speed.  Nothing here imports stampset.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter
from typing import Sequence


def _sumsets() -> int:
    rng = random.Random(7)
    total = 0
    for _ in range(1500):
        elements = set(rng.sample(range(40), 5))
        sums = {0}
        for _ in range(6):
            sums = {x + y for x in sums for y in elements}
        residues = {x: x % 7 for x in sums}
        total += len(residues) + sum(sorted(sums)[:3])
    return total


def _bitmask_walk() -> int:
    table = {}
    for mask in range(1, 1 << 13):
        elements = tuple(j for j in range(13) if mask >> j & 1)
        sums = {0}
        for _ in range(3):
            sums = {x + y for x in sums for y in elements}
        table[mask] = (len(sums), max(sums))
    return len(table)


def _arithmetic() -> int:
    state = 0
    for i in range(1_500_000):
        state = (state * 31 + i) & 0xFFFF
    return state


# About the block's median time on the 2-core Intel Xeon (Python 3.11.7)
# the baseline in baseline.json was measured on.  Times are reported as
# they would read on a machine that runs the block this fast.
REFERENCE_BLOCK_S = 0.30


def reference_block() -> float:
    """Seconds one fixed block of work takes now."""
    started = perf_counter()
    _sumsets()
    _bitmask_walk()
    _arithmetic()
    return perf_counter() - started


def speed_factor(block_times: Sequence[float]) -> float:
    """How much to scale a run's times to read them at the reference speed:
    above 1 when the machine was faster than the reference, below 1 when
    it was slower.  Rates are divided by it."""
    return REFERENCE_BLOCK_S / median(block_times)
