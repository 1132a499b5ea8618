"""Machine-speed probe for wall times taken on a shared host.

On a host shared with other tenants the same code runs up to ~1.8x slower
for stretches of 1-30 s, longer than a benchmark run can average out, and
process CPU time slows down with it.  So a short fixed kernel that does
not touch chms -- NumPy element-wise work on 4096- and 64-element arrays
plus an interpreter loop, the mix of a chms row step -- is timed before a
timed call, every PERIOD_S during it (from a SIGALRM handler, which runs
between bytecodes of the main thread) and after it.  Each segment of the
call between two probes is scaled by REFERENCE_PROBE_S over the mean of
its two probes, which reports the call in seconds of an uncontended host.
Probe time itself is excluded from the call.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Probe time on the uncontended 2-core Xeon (2.0 GHz) the benchmark was
#: defined on; it fixes the unit, and any constant would do.
REFERENCE_PROBE_S = 0.0013
PERIOD_S = 0.25

_A = np.linspace(1.0, 2.0, 4096)
_B = np.linspace(2.0, 3.0, 4096)
_A64 = _A[:64].copy()
_B64 = _B[:64].copy()


def _kernel() -> None:
    for _ in range(10):
        c = np.roll(_A, 1) * _B + _A / _B
        np.max(np.abs(c - _A))
    for _ in range(100):
        np.roll(_A64, 1) * _B64 + _A64 / _B64
    s = 0
    for i in range(6000):
        s += i


def probe_s() -> float:
    """Median duration of three runs of the fixed kernel."""
    out = []
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t)
    return statistics.median(out)


class SpeedTracker:
    """Times calls in reference-host seconds; keeps every probe taken."""

    def __init__(self):
        self.probes: list[float] = []
        self.probe_total_s = 0.0

    def clock(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.probe_total_s

    def _probe(self, marks: list) -> None:
        start = time.perf_counter()
        p = probe_s()
        end = time.perf_counter()
        self.probe_total_s += end - start
        self.probes.append(p)
        marks.append((start, end, p))

    def timed(self, fn):
        """(fn(), wall_s, reference_s); wall_s excludes the probes."""
        marks: list = []
        self._probe(marks)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe(marks))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._probe(marks)
        wall = reference = 0.0
        for (_, seg_start, p0), (seg_end, _, p1) in zip(marks, marks[1:]):
            wall += seg_end - seg_start
            reference += (seg_end - seg_start) * REFERENCE_PROBE_S / (0.5 * (p0 + p1))
        return result, wall, reference

    def slowdown(self) -> float:
        """Median probe over the reference probe: about 1 on an idle host."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S
