"""A fixed reference workload that measures the host's current speed.

The benchmark's host is shared: its speed drifts by up to ~60 % for
seconds to tens of seconds at a time, with the CPU-time/wall ratio
staying at 1, so raw host times of two runs of identical work differ by
far more than any regression worth catching. One :func:`sample` runs a
fixed mix of the two kinds of work the simulator does — Python bytecode
on ints and dicts, and NumPy calls on 32-element arrays, about half the
time each — and returns its duration. Over 4 minutes of drift,
10-second medians of golden-run time varied 1.7x while their ratio to
the median sample varied 1.17x. A NumPy-heavy mix over-corrects in the
slowest phases (reading ~12 % fast); a Python-only mix is noisier.

A :class:`Timeline` takes samples between units of work (golden runs,
trials) and normalises each unit by the samples taken around it:
``raw * REFERENCE_S / median nearby sample``, i.e. the time the work
would have taken when one sample took :data:`REFERENCE_S`. On reps of
identical work, sampling every 50 ms and normalising by the samples
within 50 ms cut the IQR of campaign time from 10-30 % to 3-5 %. The
workload never imports the program under test, so a change to the
program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Median duration of one :func:`sample` on the reference host (2-vCPU
#: KVM Xeon, Python 3.11, NumPy 2.4) in a quiet phase.
REFERENCE_S = 1.16e-3

#: Minimum seconds between two samples taken between trials.
INTERVAL_S = 0.05

#: Samples within this many seconds of a unit of work normalise it.
WINDOW_S = 0.05

_LANES = np.arange(32, dtype=np.uint32)
_MASK = (_LANES & 1).astype(bool)


def _python_work(n: int = 5000) -> int:
    table = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(n):
        table[i & 63] = i
        acc += table[(i * 7) & 63] ^ (i >> 3)
    return acc


def _numpy_work(n: int = 100) -> int:
    regs = _LANES.copy()
    for _ in range(n):
        summed = regs + _LANES
        regs[_MASK] = (summed * 3)[_MASK]
        if np.count_nonzero(_MASK) and (summed > 5).any():
            regs = np.maximum(regs, summed) >> 1
    return int(regs.sum())


def sample() -> float:
    """Seconds one run of the reference workload takes right now."""
    t0 = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - t0


class Timeline:
    """Calibration samples in time order, and the normalising factor
    for work done between two ``time.perf_counter()`` instants."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints
        self.durations: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        duration = sample()
        self.times.append(t0 + duration / 2)
        self.durations.append(duration)
        return duration

    def scale(self, start: float | None = None,
              end: float | None = None) -> float:
        """``REFERENCE_S`` over the median of the samples within
        :data:`WINDOW_S` of ``[start, end]`` (at least the two nearest;
        all samples when no interval is given)."""
        if start is None:
            return REFERENCE_S / statistics.median(self.durations)
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 2:
            i = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(i - 1, len(self.times) - 2))
            hi = min(len(self.times), lo + 2)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
