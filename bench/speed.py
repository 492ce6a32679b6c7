"""Scaling measured times to a reference speed.

On a shared virtual machine everything can run 20-50 % slower for seconds
to minutes at a time, and cross-run spreads of raw wall times then exceed
any useful regression bound.  Such slowdowns act on most CPU work alike, so
the benchmark times a fixed pure-Python loop (`reference`, independent of
hermitia) around each measurement and reports

    scaled time = measured time * NOMINAL_REF_S / (reference loop time)

that is, the time the measurement would have taken at the speed at which
the loop takes NOMINAL_REF_S.  Raw times are recorded beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_REF_S = 0.002  # a fixed unit; the loop takes 1.3-2.2 ms on a Xeon vCPU, Python 3.11
SAMPLE_EVERY_S = 0.1
NEAREST = 5  # samples per estimate when few fall near a measurement
WINDOW_S = 1.0  # samples this close to a measurement's interval count


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.x * other.x - 3 * self.y * other.y, self.x * other.y + self.y * other.x)


def _reference_work() -> None:
    # small-object arithmetic on slotted pairs, Fractions, and a
    # fraction-free elimination on Python ints: the kinds of work hermitia
    # does, written independently of it
    a, acc, frac = _Pair(3, 5), _Pair(1, 0), Fraction(0)
    for i in range(1500):
        acc = acc.mul(a) if i % 16 else _Pair(1, i)
        if i % 10 == 0:
            frac += Fraction(i, i + 7)
    n = 11
    m = [[((i + 3) * (j + 7) * 2654435761 + i * j) % 1009 - 504 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k] or 1
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot


def reference() -> float:
    """Duration of one run of a fixed pure-Python loop.  The collector is
    paused, so its passes over the caller's heap (which differ from
    workload to workload) do not enter the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_now(samples: int = 5) -> float:
    """Median of a few back-to-back reference runs."""
    return statistics.median(reference() for _ in range(samples))


class Speedometer:
    """Runs `reference` every SAMPLE_EVERY_S of wall time while active,
    from a SIGALRM handler in the main thread, so that speed is sampled
    during long calls too.  `spent` is the time taken by sampling, which
    the caller subtracts from what it measures."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start times, ascending
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, *_: object) -> None:
        t0 = time.perf_counter()
        duration = reference()
        self.times.append(t0)
        self.durations.append(duration)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_REF_S over the median reference time of the samples
        within WINDOW_S of [start, end], or of the NEAREST closest ones."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.durations[i] for i in order[:NEAREST]]
        else:
            near = self.durations[lo:hi]
        return NOMINAL_REF_S / statistics.median(near)
