"""ECC + spare-row repair accounting: degraded, not dead."""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.faults import (FaultPlan, RepairModel, StuckBit, WeakCell,
                          assess_plan, generate_fault_plan)


def handcrafted_plan() -> FaultPlan:
    """Two blocks, one spare each: 3 weak rows + 1 uncorrectable row."""
    return FaultPlan(
        seed=0, n_blocks=2, rows_per_block=8,
        weak_cells=(WeakCell(0, 1, 5e-6), WeakCell(0, 2, 1e-5),
                    WeakCell(1, 3, 2e-5)),
        # Row (1, 0) has two stuck bits: beyond 1-bit ECC.
        stuck_bits=(StuckBit(1, 0, 0), StuckBit(1, 0, 7),
                    StuckBit(0, 5, 3)),
    )


class TestRepairAccounting:
    def test_severity_ordered_allocation(self):
        repair = RepairModel(spare_rows_per_block=1, correctable_bits=1)
        report = assess_plan(handcrafted_plan(), repair,
                             base_refresh_period=1e-3)
        # Block 1's spare goes to the uncorrectable stuck row, block 0's
        # to its weakest cell (5 us); nothing is mapped out.
        assert report.repaired_rows == 2
        assert report.spare_rows_used == 2
        assert report.mapped_out_rows == 0
        # (0, 5) has one stuck bit: ECC absorbs it on every access.
        assert report.correctable_rows == 1
        assert report.corrected_bits_per_access == 1
        # Weak cells at (0, 2) and (1, 3) survive repair.
        assert report.surviving_weak_cells == 2
        assert report.functional

    def test_refresh_uplift_follows_weakest_survivor(self):
        repair = RepairModel(spare_rows_per_block=1, correctable_bits=1,
                             retention_guard=2.0)
        report = assess_plan(handcrafted_plan(), repair,
                             base_refresh_period=1e-3)
        # Weakest survivor is 1e-5 s; guard 2 -> 5e-6 s period.
        assert report.degraded_refresh_period == pytest.approx(5e-6)
        assert report.refresh_rate_uplift == pytest.approx(200.0)

    def test_no_spares_maps_out_uncorrectable_rows(self):
        repair = RepairModel(spare_rows_per_block=0, correctable_bits=1)
        report = assess_plan(handcrafted_plan(), repair,
                             base_refresh_period=1e-3)
        assert report.repaired_rows == 0
        assert report.mapped_out_rows == 1  # the 2-stuck-bit row
        assert report.surviving_weak_cells == 3
        assert 0.0 < report.capacity_loss_fraction < 1.0
        assert report.functional

    def test_static_cell_base_period_keeps_unit_uplift(self):
        plan = FaultPlan(seed=0, n_blocks=1, rows_per_block=8)
        report = assess_plan(plan, RepairModel(),
                             base_refresh_period=math.inf)
        assert report.refresh_rate_uplift == 1.0

    def test_rejects_nonpositive_base_period(self):
        with pytest.raises(ConfigurationError):
            assess_plan(handcrafted_plan(), RepairModel(),
                        base_refresh_period=0.0)

    def test_counters_emitted(self):
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            assess_plan(handcrafted_plan(),
                        RepairModel(spare_rows_per_block=0),
                        base_refresh_period=1e-3)
        counters = registry.snapshot()["counters"]
        assert counters["faults.rows_mapped_out"] == 1
        gauges = registry.snapshot()["gauges"]
        assert gauges["faults.refresh_rate_uplift"] > 1.0

    def test_describe_reports_degraded_but_functional(self):
        report = assess_plan(handcrafted_plan(), RepairModel(),
                             base_refresh_period=1e-3)
        text = report.describe()
        assert "functional       : yes" in text
        assert "rate uplift" in text


class TestMacroIntegration:
    def test_fault_assessment_on_built_macro(self, dram_macro_128kb):
        org = dram_macro_128kb.organization
        plan = generate_fault_plan(
            seed=3, n_blocks=org.n_localblocks,
            rows_per_block=org.cells_per_lbl, word_bits=org.word_bits,
            weak_cell_fraction=0.005, refresh_drop_fraction=0.001)
        report = dram_macro_128kb.fault_assessment(plan)
        assert report.functional
        assert report.total_rows == org.n_localblocks * org.cells_per_lbl
        # The macro's refresh period is finite for a dynamic cell and
        # the degraded period can only be shorter.
        assert report.degraded_refresh_period <= report.base_refresh_period

    def test_fault_assessment_rejects_mismatched_plan(self, dram_macro_128kb):
        plan = generate_fault_plan(seed=3, n_blocks=2, rows_per_block=4)
        with pytest.raises(ConfigurationError):
            dram_macro_128kb.fault_assessment(plan)
