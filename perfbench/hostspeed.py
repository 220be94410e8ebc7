"""Host-speed calibration for a shared, noisy host.

On a virtual machine that shares its cores, the whole process can run
20-50% slower for tens of seconds at a time, and CPU time tracks wall
time, so no per-process clock hides it.  The benchmark therefore samples
a fixed calibration kernel (a Python dict loop, small boolean-matrix
operations and 8x8 solves, the mix of a ucran trial) every 0.1 s: at
trial entry and, inside long trials, at the entry of recurring calls.
Kernel time is subtracted from the timed interval, and the rest is
rescaled to a host on which one kernel run takes ``REFERENCE_S``:

    reported = (measured - kernel time inside) * REFERENCE_S
               / median(kernel samples within 1 s of the interval)

Timed ucran code and the kernel slow down together (across processes
their ratio spreads about a quarter as much as either alone), so the
rescaled figures are steadier than raw wall time.  Raw figures are
reported alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About the median kernel time on a quiet 2-core x86-64 host (Python 3.11,
# numpy 2.4, OpenBLAS on one thread).  Any fixed value would do: it only
# sets the unit of the rescaled figures.
REFERENCE_S = 0.001
# Kernel runs are taken PER_TICK at a time, at most every INTERVAL_S; an
# interval is rescaled by the samples within WINDOW_S of it.
INTERVAL_S = 0.1
PER_TICK = 2
WINDOW_S = 1.0

_RNG = np.random.default_rng(0)
_SOLVE = _RNG.standard_normal((8, 8)) + 8.0 * np.eye(8)
_GRAPH = _RNG.random((24, 24))


def kernel_seconds() -> float:
    """Run the fixed calibration kernel once and return its duration: a
    dict/set loop, small boolean-matrix and indexing operations, and 8x8
    solves, in about equal parts."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen = set()
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        seen.add(i % 53)
    sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    for i in range(50):
        adjacency = _GRAPH > 0.5
        shared = adjacency @ adjacency.T
        _GRAPH[np.flatnonzero(shared[i % 24])].sum(axis=0)
    b = _SOLVE[0]
    for _ in range(30):
        b = np.linalg.solve(_SOLVE, b + 1.0)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples of one process and the rescaling that follows from them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, end), in order
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Sample the kernel if ``INTERVAL_S`` passed since the last samples."""
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        for _ in range(PER_TICK):
            start = time.perf_counter()
            kernel_seconds()
            self.samples.append((start, time.perf_counter()))
        self._last = time.perf_counter()

    def burst(self, count: int) -> None:
        """``count`` back-to-back calls of :meth:`tick`, outside any timing."""
        for _ in range(count):
            self.tick(force=True)

    def _between(self, start: float, end: float) -> list[tuple[float, float]]:
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end, float("inf")))
        return self.samples[lo:hi]

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Rescaling factor for durations measured in [start, end]: from the
        samples within ``WINDOW_S`` of it, or from all when fewer than 4."""
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if len(near) < 4:
            near = self.samples
        return REFERENCE_S / statistics.median(e - s for s, e in near)

    def rescaled(self, start: float, end: float) -> float:
        """Duration of [start, end] without the kernel runs inside it,
        rescaled to the reference host."""
        return (end - start - self.calibration_seconds(start, end)) * self.scale(start, end)

    def calibration_seconds(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end]."""
        return sum(e - s for s, e in self._between(start, end) if e <= end)
