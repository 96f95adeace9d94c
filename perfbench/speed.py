"""Machine speed, sampled during a timed repetition.

On the 2-core x86-64 virtual machine this benchmark was developed on, a
fixed piece of Python runs 1.5-1.9x slower for stretches of seconds to
minutes, and whole 25-second runs can fall inside a slow stretch, so no
statistic over one run's repetitions removes it. The sampler measures the
speed where the work runs: every INTERVAL_S a timer signal interrupts the
main thread, which then times `probe()`, a fixed piece of standard-library
work that touches no sdfkit code. A job's normalized time is its measured
time, minus the time spent in the handler, scaled by NOMINAL_S / (mean probe
time around the job): the time it would take at the speed where `probe()`
takes NOMINAL_S. Set-up, too short to sample, is scaled by a burst of probes
run right after it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.25  # probes this close to a job also count for its speed
NOMINAL_S = 0.0006  # probe time in the fast state of the development machine

_ITEMS = [(i % 7, str(i), frozenset((i, i + 1)), Fraction(i, 3)) for i in range(40)]


def probe() -> int:
    """Allocation-heavy work like the kernel's: keyed sorts, frozensets, dicts."""
    total = 0
    for _ in range(12):
        ordered = sorted(_ITEMS, key=lambda t: (t[3], t[1]))
        index = {t[:3]: n for n, t in enumerate(ordered)}
        union = frozenset().union(*(t[2] for t in ordered[:20]))
        total += len(index) + len(union)
    return total


class Sampler:
    def __init__(self):
        self.at: list[float] = []  # start of each probe
        self.took: list[float] = []  # its duration
        self.paused = 0.0  # total time spent in the handler

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        probe()
        done = time.perf_counter()
        self.at.append(entered)
        self.took.append(done - entered)
        self.paused += time.perf_counter() - entered

    def start(self):
        self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._handler(None, None)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean probe time from WINDOW_S before the job to
        WINDOW_S after it: speed stretches last seconds, single probes jitter."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        took = self.took[lo:hi]
        return NOMINAL_S * len(took) / sum(took)


def burst_scale(n: int = 9) -> float:
    """NOMINAL_S over the median of n probes run now."""
    took = []
    for _ in range(n):
        start = time.perf_counter()
        probe()
        took.append(time.perf_counter() - start)
    return NOMINAL_S / sorted(took)[n // 2]
