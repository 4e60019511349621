"""Tests for the routing-energy comparison (paper Sec. I)."""

import pytest

from repro.errors import ConfigurationError
from repro.stack3d import compare_links, offchip_link, onchip_link, tsv_link
from repro.units import pJ


class TestSec1Claims:
    def test_tsv_cheapest_per_bit(self):
        tsv = tsv_link(die_area=25e-6)
        off = offchip_link()
        on = onchip_link()
        assert tsv.energy_per_bit < on.energy_per_bit < off.energy_per_bit

    def test_tsv_two_orders_below_offchip(self):
        """'3D vias … have less parasitic capacitance than off-chip
        connections' — quantified: >= 100x less energy per bit."""
        ratio = offchip_link().energy_per_bit / tsv_link(25e-6).energy_per_bit
        assert ratio > 100

    def test_tsv_highest_aggregate_bandwidth(self):
        tsv = tsv_link(die_area=25e-6)
        assert tsv.aggregate_bandwidth > offchip_link().aggregate_bandwidth

    def test_bandwidth_energy_tradeoff_summary(self):
        result = compare_links()
        assert (result["3d-tsv"]["power_w"]
                < result["off-chip"]["power_w"] / 50)


class TestE11Table:
    """EXPERIMENTS.md E11 rows, pinned at the precision it prints them."""

    @staticmethod
    def row(name):
        entry = compare_links()[name]
        return entry["energy_per_bit_j"] / pJ, entry["aggregate_bandwidth_bps"]

    def test_tsv_row(self):
        energy, bandwidth = self.row("3d-tsv")
        assert f"{energy:.3f} pJ" == "0.050 pJ"
        assert f"{bandwidth / 1e12:.1f} Tb/s" == "7.8 Tb/s"

    def test_offchip_row(self):
        energy, bandwidth = self.row("off-chip")
        assert f"{energy:.2f} pJ" == "12.96 pJ"
        assert f"{bandwidth / 1e9:.0f} Gb/s" == "205 Gb/s"

    def test_onchip_row(self):
        energy, bandwidth = self.row("on-chip")
        assert f"{energy:.2f} pJ" == "1.87 pJ"
        assert f"{bandwidth / 1e9:.0f} Gb/s" == "512 Gb/s"


class TestLinkModel:
    def test_power_linear_in_bandwidth(self):
        link = tsv_link(25e-6)
        assert link.power_at(2e9) == pytest.approx(2 * link.power_at(1e9))

    def test_power_rejects_overload(self):
        link = offchip_link(pin_count=8)
        with pytest.raises(ConfigurationError):
            link.power_at(link.aggregate_bandwidth * 2)

    def test_signal_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            tsv_link(25e-6, signal_fraction=0.0)

    def test_pin_count_validated(self):
        with pytest.raises(ConfigurationError):
            offchip_link(pin_count=0)

    def test_more_area_more_links(self):
        assert tsv_link(100e-6).max_links > tsv_link(25e-6).max_links
