"""Fault-plan generation: seeded, replayable, physically sensible."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (FaultPlan, RefreshFault, SenseAmpOutlier,
                          StuckBit, WeakCell, generate_fault_plan)


def make_plan(seed: int = 7, **kwargs) -> FaultPlan:
    defaults = dict(n_blocks=64, rows_per_block=32,
                    weak_cell_fraction=0.01, stuck_bit_fraction=0.005,
                    sa_outlier_fraction=0.05,
                    refresh_drop_fraction=0.002,
                    refresh_late_fraction=0.004)
    defaults.update(kwargs)
    return generate_fault_plan(seed=seed, **defaults)


class TestDeterminism:
    def test_same_seed_same_plan(self):
        assert make_plan(seed=42) == make_plan(seed=42)
        assert make_plan(seed=42).fingerprint() == \
            make_plan(seed=42).fingerprint()

    def test_different_seed_different_plan(self):
        assert make_plan(seed=1) != make_plan(seed=2)
        assert make_plan(seed=1).fingerprint() != \
            make_plan(seed=2).fingerprint()


class TestPopulationShape:
    def test_fractions_become_counts(self):
        plan = make_plan()
        assert len(plan.weak_cells) == round(0.01 * plan.total_rows)
        assert len(plan.stuck_bits) == round(0.005 * plan.total_rows)
        assert len(plan.sa_outliers) == round(0.05 * plan.n_blocks)

    def test_weak_cells_drawn_from_retention_tail(self, scratchpad_cell):
        model = scratchpad_cell.retention_model()
        plan = make_plan(retention_model=model)
        nominal = model.nominal_retention()
        # Tail draws: every weak cell is below the nominal retention.
        assert all(c.retention_time < nominal for c in plan.weak_cells)
        assert plan.weakest_retention() == min(
            c.retention_time for c in plan.weak_cells)

    def test_coordinates_inside_matrix(self):
        plan = make_plan()
        for cell in plan.weak_cells:
            assert 0 <= cell.block < plan.n_blocks
            assert 0 <= cell.row < plan.rows_per_block
        for stuck in plan.stuck_bits:
            assert 0 <= stuck.bit < plan.word_bits
        for fault in plan.refresh_faults:
            assert 0 <= fault.row < plan.total_rows

    def test_dropped_rows_never_also_late(self):
        plan = make_plan(refresh_drop_fraction=0.1,
                         refresh_late_fraction=0.1)
        assert not plan.dropped_rows() & set(plan.late_rows())

    def test_empty_fractions_empty_plan(self):
        plan = make_plan(weak_cell_fraction=0.0, stuck_bit_fraction=0.0,
                         sa_outlier_fraction=0.0,
                         refresh_drop_fraction=0.0,
                         refresh_late_fraction=0.0)
        assert plan.weak_cells == ()
        assert plan.weakest_retention() is None
        assert plan.worst_sa_multiplier() == 1.0
        assert plan.weak_cell_fraction == 0.0


class TestDerivedViews:
    def test_global_row_is_block_major(self):
        plan = make_plan()
        assert plan.global_row(0, 0) == 0
        assert plan.global_row(1, 0) == plan.rows_per_block
        assert plan.global_row(2, 3) == 2 * plan.rows_per_block + 3

    def test_describe_mentions_every_category(self):
        text = make_plan().describe()
        for word in ("weak cells", "stuck bits", "SA outliers",
                     "dropped", "late"):
            assert word in text


class TestValidation:
    def test_rejects_fraction_above_one(self):
        with pytest.raises(ConfigurationError):
            make_plan(weak_cell_fraction=1.5)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ConfigurationError):
            make_plan(refresh_drop_fraction=-0.1)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, n_blocks=0, rows_per_block=32)

    def test_rejects_unknown_refresh_fault_kind(self):
        with pytest.raises(ConfigurationError):
            RefreshFault(row=0, kind="explode")

    def test_handcrafted_plan_roundtrips(self):
        plan = FaultPlan(
            seed=0, n_blocks=2, rows_per_block=4,
            weak_cells=(WeakCell(0, 1, 1e-4),),
            stuck_bits=(StuckBit(1, 2, 5),),
            sa_outliers=(SenseAmpOutlier(1, 1.4),),
            refresh_faults=(RefreshFault(3, "drop"),
                            RefreshFault(5, "late", delay_cycles=9)))
        assert plan.weak_rows() == {1}
        assert plan.dropped_rows() == {3}
        assert plan.late_rows() == {5: 9}
        assert plan.worst_sa_multiplier() == 1.4
