"""A clock that discounts the host's changing speed.

On a shared host the same work can take twice as long from one second
to the next, and raw wall times of identical runs spread by 30 % and
more. This clock
samples the host's speed every ``PERIOD_S`` seconds. A SIGALRM handler
times a fixed calibration kernel, and each stretch of wall time between
two samples is rescaled by ``NOMINAL_S / (kernel time)``. The kernel's
own time is left out.

A reading is therefore the time the work would have taken had the kernel
run in ``NOMINAL_S`` seconds throughout. Times taken this way
("calibrated seconds") compare across runs and commits on one host, not
across hosts.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from scipy.linalg import solve_triangular

# About the kernel's time on an uncontended core of a Xeon (Sapphire
# Rapids) KVM guest, so that calibrated seconds read close to wall seconds
# there.
NOMINAL_S = 0.93e-3
PERIOD_S = 0.05


class _Kernel:
    """Fixed work resembling the program's: small numpy calls and Python."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 120))
        self.L = np.linalg.cholesky(a @ a.T + 120 * np.eye(120))
        self.b = rng.standard_normal((120, 4))
        self.x = rng.standard_normal((30, 1))

    def __call__(self) -> float:
        total = 0.0
        for i in range(36):
            sq = (self.x * self.x).sum(1)[:, None] - 2.0 * self.x @ self.x.T
            total += float(np.exp(-0.5 * sq)[0, 1])
            total += solve_triangular(self.L, self.b, lower=True, check_finite=False)[0, 0]
            total += i * 0.5
        return total


class SteadyClock:
    """Use as a context manager; ``now()`` and ``at(t)`` give calibrated
    seconds for the current instant or a past ``time.perf_counter()``."""

    def __init__(self):
        self._kernel = _Kernel()
        self._kernel()  # warm up before the first sample
        self._ends = []  # perf_counter at the end of each sample
        self._cum = []  # calibrated seconds up to each sample's end
        self._scale = []  # nominal over measured kernel time, per sample
        self._previous = None
        self._running = False

    def _sample(self, *_):
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        if self._ends:
            cum = self._cum[-1] + (start - self._ends[-1]) * self._scale[-1]
        else:
            cum = 0.0
            self._origin = end
        self._ends.append(end)
        self._cum.append(cum)
        self._scale.append(NOMINAL_S / (end - start))
        # one-shot timer, armed after the kernel: a slow sample cannot be
        # interrupted by the next one
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._sample()
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at(self, t: float) -> float:
        """Calibrated seconds from the first sample to ``perf_counter`` time ``t``.

        A stretch is scaled by the sample taken just before it, and a
        moment inside a sample maps to that sample's start.
        """
        k = bisect.bisect_right(self._ends, t) - 1
        if k < 0:
            return (t - self._origin) * self._scale[0]
        if k + 1 < len(self._ends):
            next_start = self._ends[k + 1] - NOMINAL_S / self._scale[k + 1]
            t = min(t, next_start)
        return self._cum[k] + (t - self._ends[k]) * self._scale[k]

    def now(self) -> float:
        return self.at(time.perf_counter())
