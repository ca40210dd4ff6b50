"""Host-speed calibration for timings taken on a shared machine.

On a host whose cores are shared with other tenants, the same code runs at
speeds that differ by up to 2x, switching several times a second, and the
whole host can slow down 3x over an hour.  A :class:`SpeedProbe` samples
that speed while a timed region runs: a timer signal fires every
``PERIOD_S`` seconds and its handler times fixed reference kernels, each
against its nominal time.  The slowdown of a region, or of all regions of a
run, is the mean of those ratios: the mean, not the median, because the
host switches between a fast and a slow state and a region's time depends
on the share of time spent in each.  Samples that were preempted outright
are left out.  A calibrated time is a wall time, less the time spent in the
handler, divided by the slowdown: the time it would have taken at nominal
speed.  The pure-Python kernel needs nothing but the interpreter, so
it alone times set-up, while packages are being imported; timed passes add
a small LAPACK call, which tracks the program's own mix better.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.002
# a sample this many times the region's median was preempted, not slow
STALL_FACTOR = 5.0

# Nominal kernel times are their times on an uncontended core of the
# reference host (Xeon at 2.1 GHz, Python 3.11, OpenBLAS); constants, so
# calibrated times compare across runs and commits.
NOMINAL_PYTHON_S = 2.0e-5
NOMINAL_SVD_S = 1.6e-5


def reference_kernel() -> int:
    """A fixed small mix of integer arithmetic and dict work."""
    acc = 0
    table = {}
    for i in range(160):
        acc += (i * i) ^ (acc >> 3)
        table[i & 31] = acc
    return acc + len(table)


PYTHON_KERNELS = ((reference_kernel, NOMINAL_PYTHON_S),)


def with_numpy_kernel() -> tuple:
    """The pure-Python kernel plus singular values of a fixed 12x12 matrix."""
    import numpy as np

    mat = np.random.default_rng(0).standard_normal((12, 12))
    return PYTHON_KERNELS + ((lambda: np.linalg.svd(mat, compute_uv=False),
                              NOMINAL_SVD_S),)


class SpeedProbe:
    """Context manager that samples host speed while a region runs.

    ``split()`` inside the block returns (wall time, handler time) so far;
    after the block ``wall_s`` and ``handler_s`` cover the whole region.
    """

    def __init__(self, kernels=PYTHON_KERNELS, period_s: float = PERIOD_S):
        self.kernels = kernels
        self.period_s = period_s
        self.slowdowns: list[float] = []
        self.handler_s = 0.0
        self.wall_s = 0.0

    def _handler(self, signum, frame) -> None:
        entered = perf_counter()
        ratio = 0.0
        for kernel, nominal in self.kernels:
            started = perf_counter()
            kernel()
            ratio += (perf_counter() - started) / nominal
        self.slowdowns.append(ratio / len(self.kernels))
        self.handler_s += perf_counter() - entered

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)

    def split(self) -> tuple[float, float]:
        return perf_counter() - self._started, self.handler_s

    @property
    def slowdown(self) -> float:
        """Mean sampled slowdown, preempted samples left out (1.0 when the
        region was too short for a sample)."""
        if not self.slowdowns:
            return 1.0
        cut = STALL_FACTOR * statistics.median(self.slowdowns)
        return statistics.fmean(s for s in self.slowdowns if s <= cut)

    def calibrate(self, wall_s: float, handler_s: float) -> float:
        """Nominal-speed time of a stretch of this region."""
        return (wall_s - handler_s) / self.slowdown

    @property
    def calibrated_s(self) -> float:
        return self.calibrate(self.wall_s, self.handler_s)


def pooled_slowdown(probes) -> float:
    """Host slowdown over many regions: the mean of all their samples, so
    each region counts by its length, preempted samples left out."""
    samples = [s for p in probes for s in p.slowdowns]
    if not samples:
        return 1.0
    cut = STALL_FACTOR * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= cut)
