"""A speed reference for timings taken on a shared machine.

On a machine shared with other tenants the same reelab solve takes 58 ms
in one 5-second window and 100 ms in the next, and slow spells last
minutes. A fixed numpy kernel, shaped like reelab's own work, slows down
with it: over 150 s of alternating runs the solve's 5-second medians
ranged over 64% of their median, the ratio solve / kernel over 10%.

The benchmark times this kernel every SAMPLE_EVERY_S seconds between
operations and scales each operation's time by REFERENCE_S / (kernel time
around it): the time the operation would have taken with the kernel at
REFERENCE_S, the kernel's time on an unloaded 2-core Xeon (model 207, KVM)
with numpy 2.4.6 and OpenBLAS 0.3.31. The kernel is benchmark code and
uses numpy only, so a change to reelab cannot move it.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

REFERENCE_S = 3.6e-3
SAMPLE_EVERY_S = 0.5

_G = np.random.default_rng(12345).standard_normal((6, 12)).view(np.complex128)
_H = _G @ _G.conj().T


def _kernel() -> float:
    """150 small Hermitian eigendecompositions and reassemblies in a Python loop."""
    t0 = perf_counter()
    m = _H
    for _ in range(150):
        w, u = np.linalg.eigh(m)
        m = (u * np.clip(w, 0.0, None)) @ u.conj().T + 1e-3 * _H
        m = (m + m.conj().T) / 2.0
    return perf_counter() - t0


class SpeedLog:
    """Kernel samples over time, and the scale factor at any moment."""

    def __init__(self) -> None:
        self.times = []
        self.values = []

    def sample(self) -> None:
        """Record the fastest of three kernel passes, at the current time."""
        value = min(_kernel() for _ in range(3))
        self.times.append(perf_counter())
        self.values.append(value)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples around [t0, t1]."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        window = self.values[lo : hi + 1]
        return REFERENCE_S / (sum(window) / len(window))
