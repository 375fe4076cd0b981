"""A fixed kernel that measures how fast the host is *right now*.

On a shared host the same code runs 15-30 % faster or slower from one
minute to the next, CPU time tracking wall time: the processor itself
is slower, nothing preempts us.  That drift is common to everything the
process does, so timing a fixed kernel beside every pass and every
set-up lets the benchmark report times in seconds of a *nominal* host
instead of seconds of whatever the host was doing that minute.

The kernel uses nothing from :mod:`repro` — a change to the program
under test cannot move it — and mixes the two kinds of work the runtime
does: interpreter-bound dict/tuple traffic and small numpy passes over
uint64 lanes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one kernel call takes on the nominal host (the 2-core box the
#: benchmark was sized on, at its typical speed).  Only a scale factor:
#: it makes calibrated and wall figures read alike on that host.
NOMINAL_KERNEL_S = 0.0145

_ROWS = 32768
_rng = np.random.default_rng(0xCA11B)
_LANES = _rng.integers(0, 1 << 62, size=_ROWS, dtype=np.int64).astype(np.uint64)
_PICK = _rng.integers(0, _ROWS, size=_ROWS, dtype=np.int64)
_MASK = np.uint64(0x0000FFFFFFFF0000)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall seconds."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(40000):
        table[(i & 1023, i >> 3)] = acc
        acc += table.get((i & 511, i >> 4), 1) & 0xFFFF
    for offset in range(0, _ROWS, 256):
        pick = _PICK[offset : offset + 256]
        rows, inverse = np.unique(pick, return_inverse=True)
        np.bincount(inverse, minlength=len(rows))
        (_LANES[rows] & _MASK).tobytes()
    return time.perf_counter() - start


def host_factor(calls: int = 8) -> float:
    """How many nominal seconds one wall second is worth right now:
    above 1 on a host running faster than nominal, below 1 on a slower
    one.  Multiply wall seconds by it to get nominal seconds."""
    return NOMINAL_KERNEL_S / statistics.median(kernel() for _ in range(calls))
