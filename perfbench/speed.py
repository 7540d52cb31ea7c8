"""Correcting measured times for CPU contention from outside the process.

On a shared machine the same pass can take 1.7 times longer while another
tenant competes for the core, for stretches of a few seconds at a time; the
process's own CPU time grows with it, so it is no better a measure. While a
run measures, :class:`SpeedSampler` interrupts the process every
``PERIOD_S`` seconds (``SIGALRM``, no thread) and times a fixed calibration
loop. That loop takes about ``REFERENCE_S`` on an uncontended 2.1 GHz core
of a shared 2-vCPU machine under Python 3.11; a sample that took longer shows
that the machine ran slower at that moment.

:meth:`SpeedSampler.corrected` turns a measured interval into the time it
would have taken at reference speed: each stretch between samples is scaled
by ``REFERENCE_S / sample``, and the samples' own time is left out. Work
done in comal is unchanged by this; only the machine's speed is factored out.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

PERIOD_S = 0.01
# Samples this far either side of an interval also count towards its speed:
# contention changes over seconds, and a set-up of a few milliseconds would
# otherwise rest on one or two samples.
MARGIN_S = 0.05
REFERENCE_S = 1e-4

_KEYS = [(i % 7, str(i)) for i in range(40)]


def _calibrate() -> int:
    """Fixed work in the same style as comal's: hashing tuples and frozensets,
    dict stores and small sorts."""
    total = 0
    for _ in range(5):
        table = {}
        for key in _KEYS:
            table[frozenset((key, key[0]))] = sorted((key, key))
        total += len(table)
    return total


class SpeedSampler:
    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _calibrate()
        self.times.append(start)
        self.costs.append(perf_counter() - start)

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` at reference speed, less the samples taken inside
        it; with no sample near it, it is returned as measured."""
        lo = bisect_left(self.times, start - MARGIN_S)
        hi = bisect_right(self.times, end + MARGIN_S)
        if lo == hi:
            return end - start
        inside = sum(self.costs[bisect_left(self.times, start):bisect_right(self.times, end)])
        scale = fmean(REFERENCE_S / cost for cost in self.costs[lo:hi])
        return (end - start - inside) * scale

    def slowdown(self) -> float:
        """Median sample over the reference: how contended the run was."""
        ordered = sorted(self.costs)
        return ordered[len(ordered) // 2] / REFERENCE_S if ordered else 1.0
