"""Refresh/access interference simulator (paper Fig. 5).

The memory is single-ported per local block.  Each trace cycle may issue
one access; if the targeted scope is refreshing, the access stalls (it
and everything behind it wait — an in-order memory port).  The reported
``busy_fraction`` is the fraction of cycles lost to refresh-induced
stalls, the paper's "percentage of busy cycles due to refresh".

The walk steps from access to access, yet stays cycle-exact.  Refresh
``k`` activates at ``act_k = max(start_k, end_{k-1}, act_{k-1} + 1)``
(one start per cycle, none before the previous one ends) and blocks
``[act_k, end_k)``.  An access issues at ``max(arrival, previous + 1)``
and waits out each activated refresh that blocks its block.

``analytic_busy_fraction`` gives the closed-form expectation for uniform
random traffic; tests cross-check the simulator against it.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.refresh.controller import RefreshPolicy
from repro.refresh.traces import IDLE

_log = logging.getLogger(__name__)

#: Cycles per busy-fraction telemetry sample: the walk bins its stalled
#: cycle spans into windows after the run, one sample per full window.
_BUSY_SAMPLE_WINDOW = 4096

#: Refreshes (and accesses) the walk holds as Python lists at a time.
_CHUNK = 1024


@dataclasses.dataclass(frozen=True)
class SimulationStats:
    """Outcome of one refresh-interference simulation.

    The fault counters fill in under a
    :class:`~repro.faults.injector.FaultyRefreshPolicy`.  A dropped
    refresh never restores its row (it decays past the readable margin
    before its next slot), so every drop is also a data-loss event.
    """

    total_cycles: int
    accesses: int
    completed: int
    stall_cycles: int
    refreshes_issued: int
    dropped_refreshes: int = 0
    late_refreshes: int = 0
    data_loss_events: int = 0

    @property
    def busy_fraction(self) -> float:
        """Fraction of all cycles lost to refresh stalls.

        An empty simulation (zero cycles) is defined as 0.0 busy, not a
        division error:

        >>> SimulationStats(total_cycles=0, accesses=0, completed=0,
        ...                 stall_cycles=0, refreshes_issued=0).busy_fraction
        0.0
        >>> SimulationStats(total_cycles=100, accesses=50, completed=50,
        ...                 stall_cycles=25, refreshes_issued=3).busy_fraction
        0.25
        """
        if self.total_cycles == 0:
            return 0.0
        return self.stall_cycles / self.total_cycles

    @property
    def access_delay_ratio(self) -> float:
        """Average extra cycles per access due to refresh.

        An idle trace (zero accesses) experiences no delay by
        definition, even if refreshes were issued:

        >>> SimulationStats(total_cycles=100, accesses=0, completed=0,
        ...                 stall_cycles=0, refreshes_issued=5).access_delay_ratio
        0.0
        >>> SimulationStats(total_cycles=100, accesses=10, completed=10,
        ...                 stall_cycles=5, refreshes_issued=3).access_delay_ratio
        0.5
        """
        if self.accesses == 0:
            return 0.0
        return self.stall_cycles / self.accesses


@dataclasses.dataclass(frozen=True)
class RefreshSimulator:
    """Runs a trace against a refresh policy."""

    policy: RefreshPolicy

    def run(self, trace: np.ndarray) -> SimulationStats:
        """Simulate ``trace`` and count refresh-induced stall cycles (in
        order: a stalled access pushes the later accesses back)."""
        if trace.ndim != 1 or not np.issubdtype(trace.dtype, np.integer):
            raise SimulationError("trace must be a 1-D integer block array")
        policy = self.policy
        scope = type(policy).__name__
        with obs.span("refresh.run", policy=scope, n_blocks=policy.n_blocks, cycles=len(trace)):
            stats = self._run(trace)
        m = obs.metrics()
        m.counter("refresh.runs").inc()
        m.counter("refresh.stall_cycles").inc(stats.stall_cycles)
        m.counter("refresh.refreshes_issued").inc(stats.refreshes_issued)
        m.counter("refresh.accesses").inc(stats.accesses)
        m.counter("refresh.completed").inc(stats.completed)
        m.gauge(f"refresh.busy_fraction.{scope}").set(stats.busy_fraction)
        if stats.dropped_refreshes or stats.late_refreshes:
            m.counter("refresh.dropped").inc(stats.dropped_refreshes)
            m.counter("refresh.late").inc(stats.late_refreshes)
            m.counter("refresh.data_loss_events").inc(stats.data_loss_events)
        _log.debug("refresh run (%s): %d cycles, %d stalls, %d refreshes", scope,
                   stats.total_cycles, stats.stall_cycles, stats.refreshes_issued)
        return stats

    def _run(self, trace: np.ndarray) -> SimulationStats:
        policy = self.policy
        arrival = np.flatnonzero(trace != IDLE)
        if ((trace < IDLE) | (trace >= policy.n_blocks)).any():
            raise SimulationError("trace targets a block outside the matrix")
        # An access still waiting at this cycle means saturation.
        horizon = len(trace) + 10 * policy.refresh_duration_cycles * (1 + len(arrival))
        spans: Optional[List[int]] = [] if obs.is_enabled() else None
        chunks = _activations(policy)
        base, act, end, scope = next(chunks)
        j, t, stall_cycles = 0, -1, 0  # act[j]: latest activation <= t
        accesses = itertools.chain.from_iterable(  # lists of bounded size
            zip(arrival[i:i + _CHUNK].tolist(), trace[arrival[i:i + _CHUNK]].tolist())
            for i in range(0, len(arrival), _CHUNK))
        for a, b in accesses:
            t = t0 = a if a > t else t + 1
            while t < horizon:
                while act[j + 1] <= t:
                    j += 1
                    if j == _CHUNK:
                        base, act, end, scope = next(chunks)
                        j = 0
                if t < end[j] and (scope[j] < 0 or scope[j] == b):
                    t = min(end[j], horizon)
                else:
                    break
            stall_cycles += t - t0
            if spans is not None and t > t0:
                spans += (t0, t)
            if t == horizon:
                break
        if spans is not None:
            _sample_busy(spans, min(t, horizon - 1))
        # A saturated run still reports the faults of the refreshes it
        # started before the horizon.
        issued = base + j + 1
        dropped, late = _fault_events(policy, issued)
        if t == horizon:
            raise SimulationError(
                "memory saturated: refresh load exceeds available cycles (period "
                f"{policy.refresh_period_cycles} cycles for {policy.total_rows} rows)")
        return SimulationStats(
            total_cycles=max(len(trace), t + 1), accesses=len(arrival),
            completed=len(arrival), stall_cycles=stall_cycles,
            refreshes_issued=issued, dropped_refreshes=dropped,
            late_refreshes=late, data_loss_events=dropped)


def _activations(policy) -> Iterator[Tuple[int, list, list, list]]:
    """Yield the schedule ``_CHUNK`` refreshes at a time: lists led by
    refresh ``base`` (the one before the chunk; first a blank sentinel).
    ``act_k - k`` is a running max, so a chunk needs one prefix max."""
    base, act, end, scope = -1 - _CHUNK, [-1], [0], [-1]
    while True:
        base += _CHUNK
        start, duration, block = policy.schedule(base + 1, _CHUNK)
        index = np.arange(base + 1, base + 1 + _CHUNK)
        stop = start + duration
        lag = np.maximum(start, np.append(end[-1], stop[:-1])) - index
        lag[0] = max(lag[0], act[-1] - base)
        act = [act[-1]] + (index + np.maximum.accumulate(lag)).tolist()
        end, scope = [end[-1]] + stop.tolist(), [scope[-1]] + block.tolist()
        yield base, act, end, scope


def _sample_busy(spans: List[int], last_cycle: int) -> None:
    """Busy samples up to ``last_cycle`` from flat ``[begin, end)`` spans."""
    edges = np.arange(_BUSY_SAMPLE_WINDOW, last_cycle + 1, _BUSY_SAMPLE_WINDOW)
    xp = np.array(spans or [0, 0])
    stalled_before = np.cumsum(np.diff(xp, prepend=0) * (np.arange(len(xp)) % 2))
    per_window = np.diff(np.interp(edges, xp, stalled_before), prepend=0.0)
    series = obs.timeseries().series("refresh.busy_fraction")
    for cycle, stalls in zip(edges.tolist(), per_window.tolist()):
        series.sample(cycle, stalls / _BUSY_SAMPLE_WINDOW)


def _fault_events(policy, issued: int) -> Tuple[int, int]:
    """Count (and emit) the dropped and late refreshes among ``issued``."""
    faults = getattr(policy, "faults", None)
    n_chunks = 0 if faults is None else -(-issued // _CHUNK)
    dropped = late = 0
    for base, act, _, _ in itertools.islice(_activations(policy), n_chunks):
        drop, slow, _ = faults(base + 1, min(_CHUNK, issued - base - 1))
        for pos in np.flatnonzero(drop | slow).tolist():
            kind = "dropped" if drop[pos] else "late_start"
            obs.event(f"refresh.{kind}", index=base + 1 + pos, cycle=act[pos + 1])
        dropped, late = dropped + int(drop.sum()), late + int(slow.sum())
    return dropped, late


def analytic_busy_fraction(policy: RefreshPolicy, activity: float) -> float:
    """Expected busy fraction under uniform random traffic.

    The victim scope is refreshing a fraction ``u`` of the time
    (``policy.utilisation``).  A random access collides with probability
    ``u`` (monoblock) or ``u / n_blocks`` (localized: it must also hit
    the refreshed block).  Each collision costs about half a refresh
    duration of stalling.
    """
    if not 0.0 <= activity <= 1.0:
        raise ConfigurationError("activity must lie in [0, 1]")
    hit_probability = policy.utilisation()
    if policy.refresh_starting_at(0).block is not None:
        hit_probability /= policy.n_blocks
    return activity * hit_probability * (0.5 * policy.refresh_duration_cycles)
