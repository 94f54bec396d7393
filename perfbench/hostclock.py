"""Host-speed calibration: wall seconds turned into reference seconds.

On a shared VM the same Python code runs up to 2x slower in some phases
than in others.  The phases last from under a second to minutes, the
process's CPU time slows with its wall time, and a 30-s run can fall wholly
in one phase, so neither longer runs, CPU time nor a fastest-pass statistic
cancels them.  What does: timing two fixed pure-Python kernels, in the
style of qwr's inner loops but sharing no code with qwr, between questions,
and dividing each question's wall time by the host's slowdown measured
around it.  On that VM this cut the spread of per-process workload medians
5-10x (log range 0.30-0.36 down to 0.05-0.06 over eight processes).

A reference second is a wall second on a host where the kernels take
``REF_S``.  A change to qwr cannot move the kernels' times; a change that
slows qwr slows its questions but not the kernels, and shows in full.
"""

from __future__ import annotations

import gc
import random
from math import exp, log
from statistics import median
from time import perf_counter

# Calibrate at the first question boundary at least this long after the last.
EVERY_S = 0.25
# Kernel times on a shared 2-vCPU Xeon VM at 2.0 GHz, Python 3.11.7, in its
# fast phases.
REF_S = {"bigint": 0.0018, "gf2": 0.0035}
REPS = {"bigint": 3, "gf2": 2}

_MASK = (1 << 128) - 1
_ROWS = [random.Random(i).getrandbits(200) for i in range(200)]


def bigint_kernel() -> int:
    """128-bit multiply-and-mask, XORs, bit counts and dict stores."""
    table = {}
    x = 0x9E3779B97F4A7C15F39CC0605CEDC835
    acc = 0
    for i in range(5000):
        x = (x * 0x5851F42D4C957F2D + i) & _MASK
        acc ^= x >> (i & 63)
        table[x & 0xFFF] = acc.bit_count()
    return len(table)


def gf2_kernel() -> int:
    """Rank of a fixed 200 x 200 binary matrix by row reduction over
    integers used as bit rows."""
    rows = list(_ROWS)
    rank = 0
    for bit in range(199, -1, -1):
        mask = 1 << bit
        for i in range(rank, len(rows)):
            if rows[i] & mask:
                rows[rank], rows[i] = rows[i], rows[rank]
                break
        else:
            continue
        pivot = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= pivot
        rank += 1
    return rank


KERNELS = {"bigint": bigint_kernel, "gf2": gf2_kernel}


class HostClock:
    """Measures the host's slowdown at question boundaries.

    ``calibrate`` starts a segment; ``close`` ends it, calibrating again,
    and returns the segment's slowdown: the mean of the slowdowns at its two
    ends.  Wall seconds in the segment divided by it are reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.calibrate()

    def slowdown_now(self) -> float:
        """Geometric mean over the kernels of mean time / reference time."""
        logs = []
        gc.disable()
        try:
            for name, kernel in KERNELS.items():
                total = 0.0
                for _ in range(REPS[name]):
                    start = perf_counter()
                    kernel()
                    total += perf_counter() - start
                logs.append(log(total / REPS[name] / REF_S[name]))
        finally:
            gc.enable()
        return exp(sum(logs) / len(logs))

    def calibrate(self) -> float:
        self.last = self.slowdown_now()
        self.last_at = perf_counter()
        self.samples.append(self.last)
        return self.last

    def due(self) -> bool:
        return perf_counter() - self.last_at >= EVERY_S

    def close(self) -> float:
        before = self.last
        return (before + self.calibrate()) / 2

    def median_slowdown(self) -> float:
        return median(self.samples)
