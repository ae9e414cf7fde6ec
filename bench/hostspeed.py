"""Host speed: a fixed kernel timed between the ops of a run.

On a shared host the speed of a vCPU drifts by a fifth or more over tens of
seconds (other tenants on the same cores), and a run's median cannot remove
a slowdown that lasts as long as the run. The benchmark therefore times this
kernel between ops and reports every time at the reference speed:

    reported = measured * REFERENCE_S / median(kernel times of the run)

It follows the speed of the vCPU: how fast interpreted code and small
LAPACK calls run. It does not follow contention for memory bandwidth, which
moves the large-array workloads by about a tenth on its own.

The kernel uses numpy only, never specnorm, so a change to the program
cannot move it. It mixes what the program spends its time on: interpreted
Python and small batched Hermitian eigendecompositions. It streams no large
array: how fast that runs right after an op depends on what the op left in
the shared cache, which would tie the kernel to the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the baseline host (2 vCPUs, Intel Xeon 2.1 GHz,
# numpy 2.4 with scipy-openblas, 1 BLAS thread), so reported times read as
# seconds on that host at its usual speed.
REFERENCE_S = 0.0060
INTERVAL_S = 0.1  # one kernel sample per this much op time
MAX_BURST = 30  # samples taken at once after a long op

_rng = np.random.default_rng(20220822)
_A = _rng.standard_normal((64, 8, 8)) + 1j * _rng.standard_normal((64, 8, 8))
_HERMITIAN = _A @ np.conj(np.swapaxes(_A, -1, -2))


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i % 7
    for _ in range(3):
        np.linalg.eigh(_HERMITIAN)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples spread over a run, one per INTERVAL_S of elapsed time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def burst(self, n: int) -> None:
        self.samples.extend(kernel() for _ in range(n))
        self._last = time.perf_counter()

    def between_ops(self, at_least: int = 0) -> None:
        """Take the samples owed since the last ones (called outside any op)."""
        owed = max(int((time.perf_counter() - self._last) / INTERVAL_S), at_least)
        if owed:
            self.burst(min(owed, MAX_BURST))

    def scale(self) -> float:
        """Factor that turns this run's measured seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
