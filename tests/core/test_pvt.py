"""Tests for PVT (corner/temperature) analysis."""

import pytest

from repro.core import PvtAnalysis
from repro.errors import ConfigurationError
from repro.tech import Corner


@pytest.fixture(scope="module")
def dram_points():
    analysis = PvtAnalysis(retention_samples=300)
    return {p.label: p
            for p in analysis.sweep(temperatures=(300.0, 358.0))}


class TestCornerOrdering:
    def test_ss_slowest_ff_fastest(self, dram_points):
        assert (dram_points["SS@300K"].access_time
                > dram_points["TT@300K"].access_time
                > dram_points["FF@300K"].access_time)

    def test_hot_is_slower(self, dram_points):
        assert (dram_points["TT@358K"].access_time
                > dram_points["TT@300K"].access_time)

    def test_energy_roughly_corner_independent(self, dram_points):
        """Dynamic energy is CV^2: corners move delay, not charge."""
        assert dram_points["SS@300K"].read_energy == pytest.approx(
            dram_points["FF@300K"].read_energy, rel=0.05)


class TestRetentionCollapse:
    def test_hot_retention_much_shorter(self, dram_points):
        cold = dram_points["TT@300K"].worst_retention
        hot = dram_points["TT@358K"].worst_retention
        assert hot < 0.1 * cold

    def test_hot_refresh_power_explodes(self, dram_points):
        cold = dram_points["TT@300K"].static_power
        hot = dram_points["TT@358K"].static_power
        assert hot > 10 * cold

    def test_derating_curve_monotone(self):
        analysis = PvtAnalysis(retention_samples=300)
        retentions = [analysis.evaluate(Corner.TT, t).worst_retention
                      for t in (300.0, 330.0, 358.0)]
        assert retentions == sorted(retentions, reverse=True)


class TestSramVariant:
    def test_sram_static_grows_hot(self):
        analysis = PvtAnalysis(technology="sram")
        cold = analysis.evaluate(Corner.TT, 300.0)
        hot = analysis.evaluate(Corner.TT, 358.0)
        assert hot.static_power > 2 * cold.static_power
        assert cold.worst_retention is None

    def test_sram_leakage_worst_at_ff(self):
        analysis = PvtAnalysis(technology="sram")
        ff = analysis.evaluate(Corner.FF, 300.0)
        ss = analysis.evaluate(Corner.SS, 300.0)
        assert ff.static_power > ss.static_power


class TestValidation:
    def test_unknown_technology(self):
        with pytest.raises(ConfigurationError):
            PvtAnalysis(technology="flash")

    def test_nonpositive_bits(self):
        with pytest.raises(ConfigurationError):
            PvtAnalysis(total_bits=0)

    def test_point_label(self, dram_points):
        assert "TT@300K" in dram_points
