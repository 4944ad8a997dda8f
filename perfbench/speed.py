"""Host speed sampling, so that solve times can be read in units of a fixed kernel.

Each vCPU of a shared host can run at two speeds about 1.75x apart, switching
within a second or holding for tens of seconds; the same round, same inputs,
took 3.2 s and 6.1 s in one process.  ``SpeedSampler`` times a short fixed
numpy kernel every ``PERIOD`` seconds from an interval-timer signal, on the
thread that runs the solve, so the samples see the speed the solve ran at.

The kernel is a frozen copy of the shape of lsnav's hot loop (a pseudo-gradient
RK2 step on S^3 x S^3 with block projections and the rho ramp, then a batched
2-frame polar factor).  It never calls lsnav, so no change to lsnav moves it,
while it slows down with the host the way the library's small-array numpy
code does.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
_X0 = np.random.default_rng(12345).standard_normal((60, 8))
_BLOCKS = ((0, 4), (4, 8))


def _normalize(x):
    out = x.copy()
    for s, e in _BLOCKS:
        out[:, s:e] /= np.linalg.norm(out[:, s:e], axis=-1, keepdims=True)
    return out


def _pseudo_gradient(x):
    g = np.zeros_like(x)
    d = x[:, :4] - x[:, 4:]
    g[:, :4] = 2.0 * d
    g[:, 4:] = -2.0 * d
    for s, e in _BLOCKS:
        g[:, s:e] -= np.sum(x[:, s:e] * g[:, s:e], axis=-1, keepdims=True) * x[:, s:e]
    n = np.linalg.norm(g, axis=-1)
    t = n - 1.0
    rho = np.where(n <= 1.0, 1.0, np.where(n >= 2.0, n, 1.0 + 2.0 * t**2 - t**3))
    return g / rho[:, None]


def kernel_s() -> float:
    """Time of one pass of the fixed kernel (about half a millisecond)."""
    x = _normalize(_X0)
    start = time.perf_counter()
    k1 = _pseudo_gradient(x)
    k2 = _pseudo_gradient(_normalize(x + 0.025 * k1))
    x = _normalize(x + 0.05 * k2)
    u, _s, vh = np.linalg.svd(np.stack([x[:, :4], x[:, 4:]], axis=-1), full_matrices=False)
    u @ vh  # the polar factor
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager: samples ``kernel_s`` every PERIOD seconds of wall time.

    ``spent`` is the time the samples took, which the caller subtracts from
    the wall time of the solve they interrupted; ``in_kernel_units(seconds)``
    converts solve seconds to multiples of the kernel's mean time over the
    samples (time-weighted: seconds times the mean of 1 / kernel time).
    """

    def __init__(self):
        self.inverse = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        self.inverse.append(1.0 / kernel_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.inverse:  # a solve shorter than PERIOD: sample once afterwards
            self.inverse.append(1.0 / kernel_s())
        return False

    def in_kernel_units(self, seconds: float) -> float:
        return seconds * statistics.fmean(self.inverse)
