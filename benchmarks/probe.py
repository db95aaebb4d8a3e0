"""CPU speed probe that scales measured times to a reference speed.

On a shared machine the speed of a core changes by up to half within
seconds, whatever runs on it, so raw wall times of the same work spread
far more than the changes the benchmark must detect.  The probe times a
fixed piece of pure-Python work, interleaved with the measured work on
the same core, and each measured interval is scaled by

    mean over the probes around the interval of PROBE_REF_S / probe time

(the work a reference core would do per second of the interval), which
gives its duration on a core where the probe takes ``PROBE_REF_S``
(the probe's median on the 2-core x86-64 container, CPython 3.11, where
the benchmark was written).  Raw wall times are printed next to the
scaled ones.

Inside a worker, ``Probe`` runs the probe from a SIGALRM handler every
``INTERVAL_S`` of wall time; the handler runs in the main thread between
bytecodes, so it interleaves with the work, and ``Probe.total`` lets the
caller subtract the probe's own time from an interval.  The garbage
collector is off while the probe runs, so a collection never lands in
the probe's time (and is never taken out of the program's).
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from math import gcd
from time import perf_counter

PROBE_REF_S = 0.00052
INTERVAL_S = 0.025
# Probes this far around an interval also count for it.
MARGIN_S = 0.1


# A fixed sparse integer matrix for the probe's elimination step.
_RNG = random.Random(1)
_MATRIX = [
    {col: _RNG.randint(-9, 9) for col in _RNG.sample(range(14), 4)}
    for _ in range(14)
]


def probe_loop() -> None:
    """Fixed work shaped like the program's: integer loops, then a
    fraction-free dict-of-dicts elimination with content reduction."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    rows = [dict(row) for row in _MATRIX]
    for col in range(14):
        pivot = next((row for row in rows if row.get(col)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        for row in rows:
            factor = row.get(col)
            if not factor:
                continue
            for c in row.keys() | pivot.keys():
                value = pivot[col] * row.get(c, 0) - factor * pivot.get(c, 0)
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
            content = 0
            for value in row.values():
                content = gcd(content, value)
            if content > 1:
                for c in row:
                    row[c] //= content


def time_probe() -> float:
    """Seconds of one probe, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        probe_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Probe samples taken on a timer while the measured work runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        duration = time_probe()
        self.starts.append(start)
        self.durations.append(duration)
        self.total += duration

    def clock(self) -> float:
        """perf_counter() without the time spent in probes so far."""
        return perf_counter() - self.total

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)  # so that scale() always has a sample

    def scale(self, start: float, end: float) -> float:
        """Reference-speed factor for the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:  # no probe near: take the closest one
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        return statistics.fmean(PROBE_REF_S / d for d in self.durations[lo:hi])
