"""Fault injection against the refresh interference simulator.

The last class is the ISSUE's property-style check: across seeds,
injected refresh drops only ever increase the dropped/data-loss counts
(monotone in the drop fraction), and no faulty schedule can deadlock
the simulation — every trace drains.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.faults import (FaultPlan, FaultyRefreshPolicy, RefreshFault,
                          generate_fault_plan)
from repro.refresh import (LocalizedRefresh, RefreshSimulator,
                           uniform_random_trace)

N_BLOCKS = 16
ROWS = 8
PERIOD = 4096


def policy() -> LocalizedRefresh:
    return LocalizedRefresh(n_blocks=N_BLOCKS, rows_per_block=ROWS,
                            refresh_period_cycles=PERIOD)


def faulty(plan: FaultPlan) -> FaultyRefreshPolicy:
    return FaultyRefreshPolicy(base=policy(), plan=plan)


def trace(seed: int = 5, cycles: int = 3 * PERIOD,
          activity: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return uniform_random_trace(cycles, N_BLOCKS, activity, rng)


def drop_plan(fraction: float, seed: int = 11) -> FaultPlan:
    return generate_fault_plan(
        seed=seed, n_blocks=N_BLOCKS, rows_per_block=ROWS,
        weak_cell_fraction=0.0, stuck_bit_fraction=0.0,
        sa_outlier_fraction=0.0, refresh_drop_fraction=fraction)


class TestScheduleRewriting:
    def test_dropped_slot_has_zero_duration(self):
        plan = FaultPlan(seed=0, n_blocks=N_BLOCKS, rows_per_block=ROWS,
                         refresh_faults=(RefreshFault(3, "drop"),))
        wrapped = faulty(plan)
        assert wrapped.refresh_starting_at(3).duration == 0
        # The same row faults again next period.
        total = N_BLOCKS * ROWS
        assert wrapped.fault_kind(3 + total) == "drop"
        # Healthy slots pass through untouched.
        assert wrapped.refresh_starting_at(4) == \
            policy().refresh_starting_at(4)

    def test_late_slot_is_delayed(self):
        plan = FaultPlan(
            seed=0, n_blocks=N_BLOCKS, rows_per_block=ROWS,
            refresh_faults=(RefreshFault(5, "late", delay_cycles=17),))
        wrapped = faulty(plan)
        base_op = policy().refresh_starting_at(5)
        assert wrapped.refresh_starting_at(5).start_cycle == \
            base_op.start_cycle + 17

    def test_schedule_applies_the_plan(self):
        plan = generate_fault_plan(
            seed=3, n_blocks=N_BLOCKS, rows_per_block=ROWS,
            weak_cell_fraction=0.0, stuck_bit_fraction=0.0,
            sa_outlier_fraction=0.0, refresh_drop_fraction=0.1,
            refresh_late_fraction=0.2)
        wrapped = faulty(plan)
        total = N_BLOCKS * ROWS
        dropped, late = plan.dropped_rows(), plan.late_rows()
        assert dropped and late
        start, duration, block = wrapped.schedule(5, 3 * total)
        healthy = policy().schedule(5, 3 * total)
        for k, i in enumerate(range(5, 5 + 3 * total)):
            row = i % total
            assert start[k] == healthy[0][k] + late.get(row, 0)
            assert duration[k] == (0 if row in dropped else healthy[1][k])
            assert block[k] == healthy[2][k]
            assert wrapped.fault_kind(i) == (
                "drop" if row in dropped else "late" if row in late
                else None)

    def test_fault_lookups_built_once_per_policy(self):
        wrapped = faulty(generate_fault_plan(
            seed=3, n_blocks=N_BLOCKS, rows_per_block=ROWS,
            refresh_drop_fraction=0.1, refresh_late_fraction=0.2))
        with mock.patch.object(FaultPlan, "dropped_rows", autospec=True,
                               side_effect=FaultPlan.dropped_rows) as drops, \
                mock.patch.object(FaultPlan, "late_rows", autospec=True,
                                  side_effect=FaultPlan.late_rows) as lates:
            for i in range(200):
                wrapped.fault_kind(i)
                wrapped.refresh_starting_at(i)
            wrapped.schedule(0, 4096)
            RefreshSimulator(wrapped).run(trace())
        assert (drops.call_count, lates.call_count) == (1, 1)

    def test_geometry_delegates_to_base(self):
        wrapped = faulty(drop_plan(0.1))
        base = policy()
        assert wrapped.total_rows == base.total_rows
        assert wrapped.utilisation() == base.utilisation()

    def test_rejects_mismatched_plan(self):
        plan = generate_fault_plan(seed=0, n_blocks=2, rows_per_block=2)
        with pytest.raises(ConfigurationError):
            faulty(plan)


class TestSimulatorCounting:
    def test_healthy_run_counts_zero_faults(self):
        stats = RefreshSimulator(policy()).run(trace())
        assert stats.dropped_refreshes == 0
        assert stats.late_refreshes == 0
        assert stats.data_loss_events == 0

    def test_faulty_run_counts_drops_as_data_loss(self):
        plan = drop_plan(0.05)
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            stats = RefreshSimulator(faulty(plan)).run(trace())
        assert stats.dropped_refreshes > 0
        assert stats.data_loss_events == stats.dropped_refreshes
        counters = registry.snapshot()["counters"]
        assert counters["refresh.dropped"] == stats.dropped_refreshes
        assert counters["refresh.data_loss_events"] == \
            stats.data_loss_events

    def test_late_refreshes_counted_separately(self):
        plan = generate_fault_plan(
            seed=2, n_blocks=N_BLOCKS, rows_per_block=ROWS,
            weak_cell_fraction=0.0, stuck_bit_fraction=0.0,
            sa_outlier_fraction=0.0, refresh_late_fraction=0.1)
        stats = RefreshSimulator(faulty(plan)).run(trace())
        assert stats.late_refreshes > 0
        assert stats.dropped_refreshes == 0
        assert stats.data_loss_events == 0


class TestDropMonotonicityProperty:
    """Property-style sweep: more drops never mean fewer loss events,
    and no fault mix deadlocks the simulator."""

    FRACTIONS = (0.0, 0.05, 0.15, 0.4)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_drops_monotonically_increase_loss_counts(self, seed):
        losses = []
        for fraction in self.FRACTIONS:
            plan = drop_plan(fraction, seed=seed)
            sim = RefreshSimulator(faulty(plan))
            stats = sim.run(trace(seed=seed))
            assert stats.completed == stats.accesses  # no deadlock
            losses.append(stats.data_loss_events)
        assert losses[0] == 0
        assert all(b >= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] > 0  # 40% drops must actually register

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_mixed_fault_runs_always_drain(self, seed):
        plan = generate_fault_plan(
            seed=seed, n_blocks=N_BLOCKS, rows_per_block=ROWS,
            weak_cell_fraction=0.01, refresh_drop_fraction=0.2,
            refresh_late_fraction=0.2, max_late_cycles=32)
        stats = RefreshSimulator(faulty(plan)).run(
            trace(seed=seed, activity=0.9))
        assert stats.completed == stats.accesses
        assert stats.dropped_refreshes > 0
        assert stats.late_refreshes > 0
