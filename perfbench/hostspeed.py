"""Times in reference seconds, corrected for the host's changing speed.

On a shared 2-core KVM guest the same pure-Python code runs up to about a
third slower for seconds at a time, and CPU time moves with wall time, so
the spread comes from the host and not from the program.  A fixed
``Fraction`` slice, run from a SIGALRM timer every ``PERIOD`` seconds while
the benchmark measures, slows down with the program.  A span's reference
time is its measured time, minus the slices that ran inside it, scaled by
``REFERENCE_SLICE_S`` over the mean slice time around it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

clock = time.perf_counter

PERIOD = 0.05
WINDOW = 0.25
REFERENCE_SLICE_S = 2e-3


def _slice() -> Fraction:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i % 13 + 1)
    return total


class HostSpeed:
    """Calibration slices interleaved with the measured code."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._spent = [0.0]

    def _handler(self, signum, frame) -> None:
        start = clock()
        _slice()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self._spent.append(self._spent[-1] + end - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of ``clock()``.

        Slices never overlap a ``clock()`` reading taken by measured code,
        so each lies wholly inside or outside the interval.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = end - start - (self._spent[hi] - self._spent[lo])
        near_lo = bisect.bisect_left(self.starts, start - WINDOW)
        near_hi = bisect.bisect_left(self.starts, end + WINDOW)
        if near_hi == near_lo:
            return own
        mean = (self._spent[near_hi] - self._spent[near_lo]) / (near_hi - near_lo)
        return own * REFERENCE_SLICE_S / mean
