"""Timings rescaled to a reference machine speed.

On a shared machine the speed of a core drifts by tens of percent within a
second (other tenants, frequency changes), so raw wall times of the same
work spread too widely to compare two commits.  While work is timed, a
``Ticker`` runs a fixed reference loop (``tick``) from a SIGALRM handler every
``TICK_EVERY_S``, in the middle of whatever the process is doing.  A timed
interval then loses the tick time spent inside it and is divided by the
loop's slowdown against ``REF_TICK_S``, taken as the median of the ticks
within ``SMOOTH_S`` of the interval: it reads as the time the work takes at
the speed where one tick takes ``REF_TICK_S``.  The loop mixes interpreter
arithmetic, small numpy products, dict/str work and Fractions, as the
program does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REF_TICK_S = 0.003
TICK_EVERY_S = 0.1
SMOOTH_S = 0.5

_A = np.eye(3) * 0.5


def tick() -> float:
    """Seconds taken by the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(7500):
        s += i * i % 7
    B = _A
    for _ in range(375):
        B = B @ _A + _A
    d = {}
    for i in range(1500):
        d[str(i)] = (i, i + 1)
    for _ in range(2):
        q = Fraction(0)
        for i in range(1, 60):
            q += Fraction(1, i)
    return time.perf_counter() - t0


class Ticker:
    """Reference-loop samples (start, seconds) taken from a periodic SIGALRM."""

    def __init__(self, samples=None):
        self.samples: list[tuple[float, float]] = list(samples or [])
        self._previous = None

    def sample(self, *_signal) -> None:
        """Take one reference tick (also the SIGALRM handler)."""
        t0 = time.perf_counter()
        self.samples.append((t0, tick()))

    def start(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def rescale(self, intervals) -> list[float]:
        """Rescaled durations of (start, end) intervals timed while ticking."""
        samples = sorted(self.samples)
        starts = [t for t, _ in samples]
        ends = [t + d for t, d in samples]
        # tick seconds spent before each sample, to take ticks out of intervals
        spent = [0.0]
        for _, d in samples:
            spent.append(spent[-1] + d)
        out = []
        for start, end in intervals:
            inside = max(0.0, spent[bisect.bisect_right(ends, end)]
                         - spent[bisect.bisect_left(starts, start)])
            lo = bisect.bisect_left(starts, start - SMOOTH_S)
            hi = bisect.bisect_right(starts, end + SMOOTH_S)
            # the samples just before and after always count
            lo = min(lo, max(bisect.bisect_left(starts, start) - 1, 0))
            hi = max(hi, min(bisect.bisect_right(starts, end) + 1, len(samples)))
            ref = statistics.median(d for _, d in samples[lo:hi])
            out.append(max(end - start - inside, 0.0) * REF_TICK_S / ref)
        return out


def scaled_run(fn, ticks: int = 5) -> float:
    """Run ``fn()`` once between reference ticks; returns its rescaled seconds."""
    before = [tick() for _ in range(ticks)]
    t0 = time.perf_counter()
    fn()
    raw = time.perf_counter() - t0
    after = [tick() for _ in range(ticks)]
    return raw * REF_TICK_S / statistics.median(before + after)
