"""Host-speed probe: rescales wall time to a nominal host speed.

A shared host changes speed by tens of percent within a minute, for
every kind of code alike (a pure-Python loop and the solver slow down
together, with CPU time equal to wall time).  That drift, not the
program, dominated the run-to-run spread of raw wall-clock metrics.

The probe runs a fixed pure-Python loop, the *canary*, every
``PERIOD_S`` of wall time on ``SIGALRM`` in the measuring process.
Each stretch of wall time between two canaries is rescaled by
``NOMINAL_S / canary``, with the canary taken as the median of the
``SMOOTHING`` samples around the end of the stretch (one sample
jitters by a few percent), and the canaries' own time is left out.  A
reported time is therefore what the interval would have taken on a
host that runs the canary in ``NOMINAL_S``.  The canary runs no
program code, so a program that gets slower still reads slower.
Forked pool workers inherit no
interval timer, so the probe only ever runs in the measuring process.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Dict, List

CANARY_LOOPS = 50_000
#: Canary duration on a quiet 2-CPU x86-64 host with CPython 3.11: the
#: host speed every reported time is rescaled to.
NOMINAL_S = 3.2e-3
PERIOD_S = 0.1
#: Canary samples per rescaling factor (a running median).
SMOOTHING = 5


def canary_s() -> float:
    """Time one fixed CPU-bound loop that touches no program code."""
    start = time.perf_counter()
    total = 0
    for i in range(CANARY_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostProbe:
    """Periodic canary samples and the wall-to-nominal time mapping."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy = False

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            duration = canary_s()
            self.starts.append(start)
            self.durations.append(duration)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _scale(self, i: int) -> float:
        low = max(0, min(i - SMOOTHING // 2,
                         len(self.durations) - SMOOTHING))
        return NOMINAL_S / statistics.median(
            self.durations[low:low + SMOOTHING])

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds at nominal host speed for wall interval ``[t0, t1]``."""
        starts, durations = self.starts, self.durations
        last = len(starts) - 1
        total = 0.0
        at = t0
        i = bisect.bisect_left(starts, t0)
        while i <= last and starts[i] < t1:
            total += (starts[i] - at) * self._scale(i)
            at = min(starts[i] + durations[i], t1)
            i += 1
        if t1 > at:
            total += (t1 - at) * self._scale(min(i, last))
        return total

    def summary(self) -> Dict[str, float]:
        return {"canary_samples": len(self.durations),
                "canary_median_ms": 1e3 * statistics.median(self.durations),
                "canary_min_ms": 1e3 * min(self.durations),
                "canary_max_ms": 1e3 * max(self.durations),
                "canary_nominal_ms": 1e3 * NOMINAL_S}
