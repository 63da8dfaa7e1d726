"""Machine-speed calibration interleaved with the measured calls.

On a shared machine the same code runs up to twice as slowly from one
second to the next (other tenants' load on the same cores and caches).
A measured call is slowed by about the same factor as a fixed
calibration chunk run next to it.  The gated time metrics therefore
divide each call's wall time by the local slowdown: the chunks timed
around that call, each part's time over its :data:`NOMINAL_S`.  A
call's normalised time is its wall time on a machine where every part
takes its nominal time.  The parts -- interpreted Python with small
NumPy calls, a BLAS-3 product, a LAPACK factorization -- resemble the
library's own work.  They are benchmark code only, so no change to the
library can move them.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "chunk", "Speedometer", "slowdown"]

#: Seconds each part of :func:`chunk` takes at nominal speed (its
#: time on a 2.1 GHz x86-64 core with no load on its neighbours).
NOMINAL_S = (36e-6, 35e-6, 147e-6)

_SMALL = np.ones((8, 8))
_BLOCK = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
_SQUARE = np.eye(128) * 4.0 + np.linspace(-1.0, 1.0, 128 * 128).reshape(
    128, 128)
_TABLE = {"a": 1, "b": 2}


def _call(x, y=1, **kw):
    return isinstance(x, np.ndarray) and y


def _interpreted():
    s = 0
    for _ in range(40):
        s += _call(_SMALL, y=2, z=3) + _TABLE.get("a", 0)
        s += _SMALL.copy().shape[0]
    return s


def _product():
    return float((_BLOCK @ _BLOCK)[0, 0])


def _factor():
    from scipy.linalg import lapack
    return lapack.dgetrf(_SQUARE)[2]


_PARTS = (_interpreted, _product, _factor)


def chunk() -> float:
    """The slowdown one calibration chunk sees: the mean, over its three
    parts (interpreted Python with small NumPy calls, a BLAS-3 product,
    a LAPACK factorization), of each part's time over its nominal."""
    total = 0.0
    for part, nominal in zip(_PARTS, NOMINAL_S):
        start = time.perf_counter()
        part()
        total += (time.perf_counter() - start) / nominal
    return total / len(_PARTS)


def slowdown(seconds: float = 0.1) -> float:
    """The current slowdown: the mean over ``seconds`` of chunks."""
    for _ in range(20):
        chunk()
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(chunk())
    return sum(samples) / len(samples)


class Speedometer:
    """Calibration chunks interleaved with a stream of calls: one chunk
    after a call whenever ``every`` seconds have passed since the last,
    so chunks sample the whole run evenly in time."""

    def __init__(self, every: float = 0.004, window: int = 1):
        self.every = every
        self.window = window
        self.samples = []
        self.marks = []
        self.last = time.perf_counter()

    def tick(self, calls_done: int) -> None:
        """Call after each measured call with the number done so far."""
        if time.perf_counter() - self.last >= self.every:
            self.samples.append(chunk())
            self.marks.append(calls_done)
            self.last = time.perf_counter()

    def overall(self) -> float:
        """The run's mean slowdown."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples)

    def factors(self, n: int) -> np.ndarray:
        """Per-call slowdown for calls ``0..n-1``: the mean of the
        ``2 * window`` chunks around the call."""
        if not self.samples:
            return np.ones(n)
        samples = np.asarray(self.samples)
        csum = np.concatenate(([0.0], np.cumsum(samples)))
        after = np.searchsorted(np.asarray(self.marks), np.arange(1, n + 1))
        lo = np.clip(after - self.window, 0, len(samples) - 1)
        hi = np.clip(after + self.window, lo + 1, len(samples))
        return (csum[hi] - csum[lo]) / (hi - lo)
