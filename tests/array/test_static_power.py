"""Tests for the static-power comparison (paper Fig. 7c)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError


class TestMechanisms:
    def test_sram_mechanism_is_leakage(self, sram_macro_128kb):
        report = sram_macro_128kb.static_power()
        assert report.mechanism == "leakage"
        assert report.retention_time is None

    def test_dram_mechanism_is_refresh(self, dram_macro_128kb):
        report = dram_macro_128kb.static_power()
        assert report.mechanism == "refresh"
        assert report.retention_time is not None
        assert report.refresh_row_energy is not None

    def test_sram_power_is_cells_times_leak(self, sram_macro_128kb):
        org = sram_macro_128kb.organization
        expected = org.total_bits * org.cell.standby_leakage * org.node.vdd
        assert sram_macro_128kb.static_power().power == pytest.approx(expected)

    def test_dram_power_formula(self, dram_macro_128kb):
        model = dram_macro_128kb.static_power_model
        report = dram_macro_128kb.static_power()
        org = dram_macro_128kb.organization
        expected = (org.n_words * model.energy_model.refresh_row_energy()
                    / model.refresh_period())
        assert report.power == pytest.approx(expected)


class TestRefreshGuard:
    def test_guard_halves_period(self, dram_macro_128kb):
        model = dram_macro_128kb.static_power_model
        assert model.refresh_period() == pytest.approx(
            model.resolved_retention() / model.refresh_guard)

    def test_guard_validated(self, dram_macro_128kb):
        model = dataclasses.replace(dram_macro_128kb.static_power_model,
                                    refresh_guard=0.5)
        with pytest.raises(ConfigurationError):
            model.refresh_period()

    def test_longer_retention_less_power(self, dram_macro_128kb):
        base = dram_macro_128kb.static_power_model
        slow = dataclasses.replace(base, retention_time=10e-3)
        fast = dataclasses.replace(base, retention_time=100e-6)
        assert slow.report().power < fast.report().power
        assert slow.report().power == pytest.approx(
            fast.report().power / 100.0)

    def test_rejects_nonpositive_retention(self, dram_macro_128kb):
        model = dataclasses.replace(dram_macro_128kb.static_power_model,
                                    retention_time=0.0)
        with pytest.raises(ConfigurationError):
            model.resolved_retention()


class TestPaperClaim:
    def test_factor_10_band_at_2mb(self, dram_macro_2mb, sram_macro_2mb):
        """Paper Sec. IV: 'the cell static power consumption is 10 times
        less for DRAM than for the SRAM memory, for a 2 Mb memory'.
        Accept a 5x-20x band (our substrate is a calibrated model)."""
        ratio = (sram_macro_2mb.static_power().power
                 / dram_macro_2mb.static_power().power)
        assert 5.0 < ratio < 20.0

    def test_factor_holds_at_128kb(self, dram_macro_128kb, sram_macro_128kb):
        ratio = (sram_macro_128kb.static_power().power
                 / dram_macro_128kb.static_power().power)
        assert 5.0 < ratio < 20.0

    def test_static_cell_without_retention_model(self, sram_macro_128kb):
        """Asking a static cell for a resolved retention is an error."""
        model = sram_macro_128kb.static_power_model
        with pytest.raises(ConfigurationError):
            model.resolved_retention()
