"""Machine-speed calibration of the end-to-end timings.

On the 2-vCPU virtual machine the benchmark was written on (bench/README.md),
the speed of a fixed CPU-bound loop drifts by about 25% over seconds to
minutes, so the same work read 10-30% apart from one run to the next, even
with the medians of many short cases.  `Calibration` samples that speed in
the process being measured: a SIGALRM timer runs a fixed pure-Python
`kernel` every `INTERVAL_S` of real time, whatever the program is doing at
that moment, long solves included.

`clock()` is `time.perf_counter()` less the time spent in the handler, so the
cases are timed without the kernel.  `factor(start, end)` = `REFERENCE_S` /
the mean kernel time sampled from `WINDOW_S` before to `WINDOW_S` after an
interval of `clock()`; an interval's time multiplied by it reads as seconds
on a machine whose speed runs the kernel in `REFERENCE_S` on average.  Every
case and every set-up is scaled by the speed sampled around it, because the
speed also drifts within a run.
"""

from __future__ import annotations

import gc
import json
import re
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.025
WINDOW_S = 0.5
REFERENCE_S = 0.001


# larger than the caches closest to the core, as jetcalc's rule tables are
TABLE = {(i, i % 7): i for i in range(20000)}
PATTERN = re.compile(r"([a-z]+)\[(\d+),(\d+)\]")
TEXT = "u[1,0]*v[0,2] - w[3,1]" * 10


def kernel():
    """About 1 ms of the kinds of work jetcalc does: Fraction arithmetic,
    tuple-keyed dict updates, lookups spread over a large table, a regex
    scan and JSON encoding.  A kernel of Fraction arithmetic and small
    dicts alone sped up and slowed down more than jetcalc's cases did."""
    sums = {}
    for i in range(100):
        key = (i % 13, i % 7)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 11 + 1)
    total = sum(TABLE[(i, i % 7)] for i in range(0, 20000, 7))
    PATTERN.findall(TEXT)
    return total, json.dumps([str(v) for v in sums.values()])


class Calibration:
    def __init__(self):
        self.times = []        # clock() when each sample was taken
        self.samples = []      # kernel seconds
        self.stolen = 0.0      # seconds spent in the handler
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.stolen

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()           # a collection here would scan the program's objects
        try:
            self.times.append(start - self.stolen)
            begin = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - begin)
        finally:
            if collecting:
                gc.enable()
            self.stolen += time.perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()         # so that even the shortest run has one

    def factor(self, start, end):
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi] or self.samples)
