"""Machine-speed sampling, so that wall time can be stated at one speed.

The boxes this ledger runs on are shared virtual machines whose speed
moves by 20-40 % for seconds to minutes at a time (the same pure-CPU loop
was measured between 86 ms and 131 ms within one minute, with no steal
time reported).  Runs of one commit then differ by more than any bound
worth gating on.  The slowdowns hit all code alike, so they can be
measured: a timer interrupts the timed run twice a second to time a small
fixed kernel, and the run's wall time is restated as the time it would
have taken had the kernel always run at ``REFERENCE_S``:

    wall_s = sum over slices of  slice_wall * REFERENCE_S / kernel_time

Raw wall time is reported beside it, never instead of it in the results
file.  The kernel costs about 2 % of the run and is subtracted.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List

import numpy

#: seconds the kernel takes on the reference box (the seed box, when quiet)
REFERENCE_S = 0.010
INTERVAL_S = 0.25

_MATRIX = numpy.full((192, 192), 0.5, dtype=numpy.float32)


def kernel() -> float:
    """Fixed work, half interpreter-bound and half BLAS-bound; returns seconds."""
    started = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value
    for _ in range(44):
        _MATRIX @ _MATRIX
    return time.perf_counter() - started


class SpeedSampler:
    """``with SpeedSampler() as sampler:`` around the timed run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw_wall_s = 0.0
        self._started = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "SpeedSampler":
        self._before = kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = time.monotonic()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.raw_wall_s = time.monotonic() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._after = kernel()

    @property
    def own_s(self) -> float:
        """Raw wall time of the block, kernel time taken out."""
        return self.raw_wall_s - sum(self.samples)

    @property
    def speed(self) -> float:
        """Seconds at reference speed per raw second, over the block."""
        kernels = [self._before] + self.samples + [self._after]
        return REFERENCE_S * sum(1.0 / k for k in kernels) / len(kernels)

    @property
    def wall_s(self) -> float:
        """The block's wall time at reference speed."""
        return self.own_s * self.speed


kernel()  # the first call pays BLAS initialisation; no sample should
