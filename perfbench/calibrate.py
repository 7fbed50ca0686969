"""Reference-kernel calibration for a machine whose speed drifts.

On a shared machine the core's speed switches between a fast and a slow
state, often within a second, because other tenants load the host; the same
item can take 1.6 times as long from one moment to the next.  A fixed
reference kernel, written here and independent of the library, is timed
just before every item.  Each item's time is rescaled by REF_NOMINAL_S over
the mean of the kernel times just before and just after it, which gives its
seconds on a core that runs the kernel in REF_NOMINAL_S.  A change to the
library moves the item times and not the kernel, so it shows in full; a
slower core moves both, and cancels.  An item of several seconds spans
several switches of the core's state, which the two kernel times see only
at its ends, so long items stay noisier than short ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# About the kernel's CPU time on one idle core of a 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS on one thread).
REF_NOMINAL_S = 0.003

_EXPONENTS = np.array([[3, 0, 1], [0, 2, 0], [1, 1, 1], [2, 0, 0]])
_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.5, 0.2], [0.3, 0.1, 5.0]], dtype=complex)


def reference_kernel(rounds: int = 200) -> float:
    """Small-array numpy calls inside a Python loop, the mix the library runs."""
    x = np.array([0.9 + 0.1j, 1.1 - 0.2j, 0.95 + 0.05j])
    acc = 0.0
    for _ in range(rounds):
        v = np.prod(x[None, :] ** _EXPONENTS, axis=1)
        step = np.linalg.solve(_MATRIX, v[:3])
        acc += float(np.max(np.abs(step)))
        t = 0
        for k in range(30):
            t += k * k
    return acc


class Calibration:
    """Kernel timings of one run: wall-clock midpoints, CPU and wall seconds."""

    def __init__(self):
        self.at: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def tick(self) -> None:
        """Time the kernel once."""
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        w1 = time.perf_counter()
        self.cpu.append(time.process_time() - c0)
        self.wall.append(w1 - w0)
        self.at.append((w0 + w1) / 2)

    def scale(self, seconds: float, start: float, end: float, clock: str) -> float:
        """`seconds` of an item that ran from `start` to `end` (wall clock),
        rescaled to a kernel time of REF_NOMINAL_S by the kernel timings
        just before and just after it."""
        before = max(bisect.bisect_left(self.at, start) - 1, 0)
        after = min(bisect.bisect_right(self.at, end), len(self.at) - 1)
        ticks = self.cpu if clock == "cpu" else self.wall
        return seconds * REF_NOMINAL_S * 2 / (ticks[before] + ticks[after])
