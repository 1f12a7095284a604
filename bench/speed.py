"""Host-speed calibration for the timed loop.

The benchmark runs on a few cores of a shared host whose speed drifts in
phases of seconds to minutes: the same pure-Python work takes up to twice
as long in a slow phase as in a fast one, and CPU time rises with wall
time, so it is not stolen time that a CPU clock would leave out. A
whole run can fall into one phase, so neither the fastest nor the median
of its passes is comparable between runs.

The timed loop therefore interleaves a fixed calibration kernel with the
queries, every ``EVERY_S`` seconds of query time, and scales each query's
latency by how long the kernel took around that moment:

    scaled = measured * REFERENCE_S / kernel time near the query

so a figure reads as the time the query takes on a host where the kernel
takes ``REFERENCE_S``. The kernel uses only the standard library (the
same kinds of work as the package: ``Fraction`` arithmetic on growing
denominators, dict and tuple traffic, SHA-256), so no change to the
package can change it.
"""

from __future__ import annotations

import hashlib
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# Kernel time that scaled figures refer to: about its time on a 2-core
# x86-64 VM under CPython 3.11, between that host's fast and slow phases.
REFERENCE_S = 0.002
# Query time between two calibrations.
EVERY_S = 0.1
# A query is scaled by the median kernel time within this many seconds of it.
WINDOW_S = 1.0


def kernel() -> tuple:
    """Fixed stdlib work of about 2 ms."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i)
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    digest = hashlib.sha256()
    for i in range(300):
        value = Fraction(i + 1, 3 * i + 7) * Fraction(2 * i + 1, i + 5)
        digest.update(str(value).encode())
    return total, len(table), digest.hexdigest()


class Speedometer:
    """Kernel timings over one run, and the scale factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.since = 0.0

    def calibrate(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)

    def after_query(self, elapsed: float) -> None:
        """Calibrate once ``EVERY_S`` of query time has passed since the last time."""
        self.since += elapsed
        if self.since >= EVERY_S:
            self.since = 0.0
            self.calibrate()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of ``at``
        (a perf_counter reading); the nearest calibrations on either side
        when none falls that close, as around a long query."""
        if not self.times:
            raise ValueError("no calibration yet")
        lo = bisect_left(self.times, at - WINDOW_S)
        hi = bisect_right(self.times, at + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def summary(self) -> dict:
        ordered = sorted(self.durations)
        return {
            "calibrations": len(ordered),
            "kernel_ms_min": 1000 * ordered[0],
            "kernel_ms_median": 1000 * statistics.median(ordered),
            "kernel_ms_max": 1000 * ordered[-1],
            "reference_ms": 1000 * REFERENCE_S,
        }
