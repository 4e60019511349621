"""The access-driven simulator against the per-cycle oracle.

Every output must match :func:`tests.refresh.oracle.per_cycle_run`:
``SimulationStats`` field for field, the saturation
:class:`~repro.errors.SimulationError`, the fault events and the
busy-fraction telemetry series.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SimulationError
from repro.faults import (FaultPlan, FaultyRefreshPolicy, RefreshFault,
                          generate_fault_plan)
from repro.obs.events import EventLog
from repro.obs.timeseries import TimeSeriesRecorder
from repro.refresh import (LocalizedRefresh, MonoblockRefresh,
                           RefreshSimulator, bursty_trace, hot_block_trace,
                           sequential_trace, uniform_random_trace)
from repro.refresh import simulator
from repro.refresh.simulator import _BUSY_SAMPLE_WINDOW, _CHUNK
from tests.refresh.oracle import per_cycle_run

GENERATORS = (uniform_random_trace, bursty_trace, sequential_trace,
              hot_block_trace)


def _observed(run, policy, trace, *args):
    """Run under fresh instrumentation; return the outcome (stats or
    the error type), the busy-fraction samples and the fault events."""
    series, events = TimeSeriesRecorder(), EventLog()
    with obs.instrumented(timeseries=series, events=events):
        try:
            outcome = run(policy, trace, *args)
        except SimulationError:
            outcome = SimulationError
    busy = series.series("refresh.busy_fraction")
    samples = (busy.count, busy.sum, busy.points)
    faults = [(e.kind, e.payload["index"], e.payload["cycle"])
              for e in events.events() if e.kind.startswith("refresh.")]
    return outcome, samples, faults


def _walk(policy, trace, chunk=_CHUNK):
    """The simulator, taking ``chunk`` refreshes from the schedule at a
    time (small chunks put many chunk seams inside a short trace)."""
    with mock.patch.object(simulator, "_CHUNK", chunk):
        return RefreshSimulator(policy).run(trace)


@st.composite
def cases(draw):
    n_blocks = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 8))
    cls = draw(st.sampled_from((MonoblockRefresh, LocalizedRefresh)))
    duration = draw(st.integers(1, 4))
    # Periods down to one cycle put the interval below the duration:
    # the schedule saturates and refreshes queue behind each other.
    period = draw(st.integers(1, 400))
    policy = cls(n_blocks=n_blocks, rows_per_block=rows,
                 refresh_period_cycles=period,
                 refresh_duration_cycles=duration)
    if draw(st.booleans()):
        plan = generate_fault_plan(
            seed=draw(st.integers(0, 2**16)), n_blocks=n_blocks,
            rows_per_block=rows, weak_cell_fraction=0.0,
            stuck_bit_fraction=0.0, sa_outlier_fraction=0.0,
            refresh_drop_fraction=draw(st.floats(0.0, 0.4)),
            refresh_late_fraction=draw(st.floats(0.0, 0.4)),
            max_late_cycles=draw(st.integers(1, 64)))
        policy = FaultyRefreshPolicy(base=policy, plan=plan)
    generator = draw(st.sampled_from(GENERATORS))
    trace = generator(draw(st.integers(1, 600)), n_blocks,
                      draw(st.floats(0.0, 1.0)),
                      np.random.default_rng(draw(st.integers(0, 2**16))))
    return policy, trace, draw(st.sampled_from((1, 2, 7, 64, _CHUNK)))


class TestOracleEquivalence:
    @given(case=cases())
    @settings(max_examples=300, deadline=None)
    def test_stats_and_saturation_match(self, case):
        policy, trace, chunk = case
        try:
            expected = per_cycle_run(policy, trace)
        except SimulationError:
            with pytest.raises(SimulationError):
                _walk(policy, trace, chunk)
            return
        assert _walk(policy, trace, chunk) == expected

    @given(case=cases())
    @settings(max_examples=40, deadline=None)
    def test_telemetry_matches(self, case):
        policy, trace, _ = case
        assert _observed(_walk, *case) == _observed(per_cycle_run,
                                                    policy, trace)

    def test_saturation_telemetry_matches(self):
        """The walk gives up at the per-cycle loop's horizon, with the
        same busy samples.  Here the horizon (n + 10 * duration *
        (1 + accesses) = 94208 cycles) closes a window exactly; the
        per-cycle loop never reached that cycle, so it took no sample
        there."""
        policy = MonoblockRefresh(n_blocks=4, rows_per_block=4,
                                  refresh_period_cycles=24,
                                  refresh_duration_cycles=3)
        trace = np.zeros(3038, dtype=np.int64)
        assert (3038 + 30 * 3039) % _BUSY_SAMPLE_WINDOW == 0
        walk = _observed(_walk, policy, trace)
        assert walk[0] is SimulationError
        assert walk[1][0] == 94208 // _BUSY_SAMPLE_WINDOW - 1
        assert walk == _observed(per_cycle_run, policy, trace)

    def test_saturated_run_reports_started_late_refreshes(self):
        """A run that saturates still emits the fault events of the
        refreshes it started, as the per-cycle loop does (a Hypothesis
        find: a one-row-late single block whose period is twice the
        duration never serves its access)."""
        base = MonoblockRefresh(n_blocks=1, rows_per_block=3,
                                refresh_period_cycles=4,
                                refresh_duration_cycles=2)
        plan = FaultPlan(seed=1, n_blocks=1, rows_per_block=3, word_bits=32,
                         weak_cells=(), stuck_bits=(), sa_outliers=(),
                         refresh_faults=(RefreshFault(row=1, kind="late",
                                                      delay_cycles=1),))
        policy = FaultyRefreshPolicy(base=base, plan=plan)
        trace = np.array([0])
        walk = _observed(_walk, policy, trace, 1)
        assert walk[0] is SimulationError
        assert walk[2]  # late starts before the horizon
        assert walk == _observed(per_cycle_run, policy, trace)


class TestTelemetryParity:
    def test_faulty_policy_series_and_events(self):
        """More than three busy windows and several schedule chunks,
        with drops and late starts: the sampled series and the fault
        events equal the oracle's, sample for sample."""
        policy = LocalizedRefresh(n_blocks=16, rows_per_block=8,
                                  refresh_period_cycles=150,
                                  refresh_duration_cycles=1)
        plan = generate_fault_plan(
            seed=4, n_blocks=16, rows_per_block=8, weak_cell_fraction=0.0,
            stuck_bit_fraction=0.0, sa_outlier_fraction=0.0,
            refresh_drop_fraction=0.1, refresh_late_fraction=0.2)
        faulty = FaultyRefreshPolicy(base=policy, plan=plan)
        trace = uniform_random_trace(4 * _BUSY_SAMPLE_WINDOW + 100, 16,
                                     0.7, np.random.default_rng(2009))
        walk = _observed(_walk, faulty, trace)
        stats, (count, _, points), faults = walk
        assert count == 4 and len(points) == 4
        assert [t for t, _ in points] == [
            float(_BUSY_SAMPLE_WINDOW * k) for k in range(1, 5)]
        assert stats.refreshes_issued > 2 * _CHUNK
        kinds = {kind for kind, _, _ in faults}
        assert kinds == {"refresh.dropped", "refresh.late_start"}
        assert walk == _observed(per_cycle_run, faulty, trace)


class TestInputChecks:
    def test_float_trace_rejected(self):
        """A float trace would otherwise be truncated to block indices."""
        policy = LocalizedRefresh(n_blocks=4, rows_per_block=4,
                                  refresh_period_cycles=100)
        with pytest.raises(SimulationError, match="integer"):
            RefreshSimulator(policy).run(np.array([0.5, 1.7]))

    def test_negative_block_rejected(self):
        policy = LocalizedRefresh(n_blocks=4, rows_per_block=4,
                                  refresh_period_cycles=100)
        with pytest.raises(SimulationError):
            RefreshSimulator(policy).run(np.array([0, -2, 1]))
