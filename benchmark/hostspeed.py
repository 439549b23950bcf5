"""Host speed, sampled with a fixed NumPy kernel between requests.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.5x over minutes (other tenants' load), so raw wall times of the
same code differ from run to run by more than any useful regression
bound.  A fixed kernel that does not touch psihilfer is timed between
requests, outside the timed region; each request's wall time is then
scaled to the nominal host speed, at which the kernel takes
``KERNEL_NOMINAL_S``:

    adjusted = wall * KERNEL_NOMINAL_S / kernel time near that request

A change to psihilfer moves adjusted times as it moves wall times; the
host's drift cancels.  The raw wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# about the median kernel time on a 2-vCPU x86-64 VM (the speed the adjusted
# figures are quoted at); only a unit, any fixed value would do
KERNEL_NOMINAL_S = 5.0e-3
SAMPLE_EVERY_S = 0.3
WINDOW = 2  # samples on each side of a request that set its speed


class HostSpeed:
    """Kernel timings over a run, and per-request scale factors."""

    def __init__(self):
        self._a = np.random.default_rng(0).random((1024, 1024))
        self._v = np.ones(1024)
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._next = 0.0

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        np.power(self._a, 0.7)
        self._a @ self._v
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the kernel; the best of three, so that a cache the
        program left cold does not count as a slow host."""
        self.times.append(time.perf_counter())
        self.kernel_s.append(min(self._kernel() for _ in range(3)))
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, at: float) -> float:
        """Scale from wall time to nominal-speed time around ``at``."""
        k = bisect.bisect(self.times, at)
        near = self.kernel_s[max(0, k - WINDOW):k + WINDOW]
        return KERNEL_NOMINAL_S / statistics.median(near)

    def run_factor(self) -> float:
        return KERNEL_NOMINAL_S / statistics.median(self.kernel_s)
