"""Timing that is corrected for the speed of the machine at the moment.

On a shared virtual machine the speed of a core drifts by tens of percent
over seconds, because co-tenants take cycles from it.  That drift is larger
than the changes the benchmark must resolve, and it moves a run's median as
much as its spread.  So while a workload runs, a SIGALRM handler times a fixed
pure-Python loop every PERIOD_S; a timed call's duration (minus the handler's
own time) is scaled by the probe's mean speed around that call.  The result
reads as seconds on a machine where the probe takes REF_PROBE_S, and raw wall
seconds are kept beside it.

The probe runs in the workload's own thread, between bytecodes, so the
workload process stays single-threaded.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_LOOPS = 2500
# A round value near the probe's median on a 2-vCPU Intel Xeon VM under
# Python 3.11.7.  It only fixes the unit, so it must never change.
REF_PROBE_S = 0.001
WINDOW = 8   # at least this many recent probes set the speed of a short call

_TABLE = {i: (i * 7) % 64 for i in range(64)}


class _Lookup:
    __slots__ = ("offset",)

    def __init__(self):
        self.offset = 3

    def get(self, x: int) -> int:
        return _TABLE[(x + self.offset) & 63]


_LOOKUP = _Lookup()


def _probe() -> int:
    """Method calls, dict lookups and short strings, like the package's inner
    loops; it allocates no object the garbage collector tracks.  (A plain
    arithmetic loop followed the drift less closely: its corrected times
    still spread 8 %, against 3 % for this one.)"""
    s = 0
    get = _LOOKUP.get
    for i in range(PROBE_LOOPS):
        s += get(i) + len("ab" * (i & 3))
    return s


class SpeedClock:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # seconds spent inside the handler
        self._old = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedClock":
        for _ in range(WINDOW):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """-> (corrected seconds, raw wall seconds without the probes)."""
        now = time.perf_counter()
        start, spent, n = mark
        raw = now - start - (self.spent - spent)
        window = self.samples[min(n, len(self.samples) - WINDOW):]
        # mean speed = mean of 1/probe time: a probe that caught a stall
        # counts as (nearly) zero speed for its share of the call
        return raw * REF_PROBE_S * statistics.fmean(1 / p for p in window), raw
