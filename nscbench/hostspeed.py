"""Host-speed calibration, so CPU-bound times compare across a noisy host.

On a shared machine the same code runs up to 2x slower for minutes at
a time while neighbours are busy.  :func:`calibrate` times a fixed
~2 ms mix of interpreter work and small NumPy stencils, the two things
this program spends its time on.  ``run.py`` calibrates between ops,
and reports CPU-bound metrics at the reference speed: a time is
multiplied by :meth:`Meter.factor` and a rate divided by it.  Raw
values are printed next to them.  A change to the program moves the op
times but not the calibration, so it still shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median :func:`calibrate` time on the reference host (2 vCPU VM,
#: quiet period).  Any constant works; this one keeps normalized
#: values close to raw ones there.
REFERENCE_S = 0.0017

_U = np.random.default_rng(0).random((16, 16, 16))
_OUT = np.empty_like(_U)


def calibrate() -> float:
    """Seconds one fixed unit of interpreter + NumPy work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    for i in range(300):
        table[i % 97] = (i, str(i))
    u, out = _U, _OUT
    for _ in range(20):
        out[1:-1, 1:-1, 1:-1] = (
            u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1] + u[1:-1, :-2, 1:-1]
            + u[1:-1, 2:, 1:-1] + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:]
        ) / 6.0
    return time.perf_counter() - start


class Meter:
    """Calibrates at most once per *interval* seconds of the run."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> float:
        """Calibrate if due (or *force*); returns the seconds spent."""
        now = time.perf_counter()
        if not force and now - self._last < self.interval:
            return 0.0
        self.samples.append(calibrate())
        self._last = time.perf_counter()
        return self._last - now

    def factor(self) -> float:
        """Reference speed over the host's median speed during the run
        (1.0 on a quiet reference host, below 1 while it runs slow)."""
        return REFERENCE_S / statistics.median(self.samples)


__all__ = ["Meter", "REFERENCE_S", "calibrate"]
