"""Tests for repro.tech.node."""

import pytest

from repro.errors import ConfigurationError
from repro.tech import Polarity, TransistorParams, VtFlavor
from repro.units import nm, um


class TestTransistorParams:
    def test_valid_card(self):
        p = TransistorParams(vth=0.3, k_sat=5e2, alpha=1.3, i_off=1e-3,
                             subthreshold_swing=0.09, dibl=0.1,
                             body_effect=0.2)
        assert p.vth == 0.3

    def test_rejects_negative_vth(self):
        with pytest.raises(ConfigurationError):
            TransistorParams(vth=-0.1, k_sat=5e2, alpha=1.3, i_off=1e-3,
                             subthreshold_swing=0.09, dibl=0.1,
                             body_effect=0.2)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ConfigurationError):
            TransistorParams(vth=0.3, k_sat=5e2, alpha=2.5, i_off=1e-3,
                             subthreshold_swing=0.09, dibl=0.1,
                             body_effect=0.2)

    def test_rejects_subphysical_swing(self):
        with pytest.raises(ConfigurationError):
            TransistorParams(vth=0.3, k_sat=5e2, alpha=1.3, i_off=1e-3,
                             subthreshold_swing=0.03, dibl=0.1,
                             body_effect=0.2)


class TestLogicNode:
    def test_identity(self, logic_node):
        assert logic_node.feature_size == pytest.approx(90 * nm)
        assert logic_node.vdd == pytest.approx(1.2)
        assert not logic_node.allows_wordline_overdrive

    def test_has_all_six_devices(self, logic_node):
        for polarity in Polarity:
            for flavor in VtFlavor:
                assert logic_node.params(polarity, flavor).vth > 0

    def test_vth_ordering(self, logic_node):
        lvt = logic_node.params(Polarity.NMOS, VtFlavor.LVT).vth
        svt = logic_node.params(Polarity.NMOS, VtFlavor.SVT).vth
        hvt = logic_node.params(Polarity.NMOS, VtFlavor.HVT).vth
        assert lvt < svt < hvt

    def test_leakage_ordering_follows_vth(self, logic_node):
        lvt = logic_node.params(Polarity.NMOS, VtFlavor.LVT).i_off
        svt = logic_node.params(Polarity.NMOS, VtFlavor.SVT).i_off
        hvt = logic_node.params(Polarity.NMOS, VtFlavor.HVT).i_off
        assert lvt > svt > hvt

    def test_pmos_weaker_than_nmos(self, logic_node):
        n = logic_node.params(Polarity.NMOS, VtFlavor.SVT).k_sat
        p = logic_node.params(Polarity.PMOS, VtFlavor.SVT).k_sat
        assert p < n

    def test_thermal_voltage_room_temperature(self, logic_node):
        assert logic_node.thermal_voltage == pytest.approx(0.02585, rel=0.01)

    def test_width_units(self, logic_node):
        assert logic_node.width_units(6) == pytest.approx(6 * 120 * nm)

    def test_width_units_rejects_nonpositive(self, logic_node):
        with pytest.raises(ConfigurationError):
            logic_node.width_units(0)


class TestDramNode:
    def test_allows_overdrive(self, dram_node):
        assert dram_node.allows_wordline_overdrive
        assert dram_node.vdd_max == pytest.approx(1.7)

    def test_array_device_leaks_less(self, logic_node, dram_node):
        logic_hvt = logic_node.params(Polarity.NMOS, VtFlavor.HVT).i_off
        dram_hvt = dram_node.params(Polarity.NMOS, VtFlavor.HVT).i_off
        assert dram_hvt < logic_hvt

    def test_junction_leakage_engineered_down(self, logic_node, dram_node):
        assert (dram_node.junction_leak_per_width
                < logic_node.junction_leak_per_width)

    def test_dram_cell_area(self, dram_node):
        assert dram_node.dram_cell_area == pytest.approx(0.3 * um * um)


class TestScaling:
    def test_areas_shrink_quadratically(self, logic_node):
        scaled = logic_node.scaled(45 * nm)
        ratio = scaled.sram6t_cell_area / logic_node.sram6t_cell_area
        assert ratio == pytest.approx(0.25, rel=0.01)

    def test_leakage_grows_when_shrinking(self, logic_node):
        scaled = logic_node.scaled(45 * nm)
        assert (scaled.params(Polarity.NMOS, VtFlavor.SVT).i_off
                > logic_node.params(Polarity.NMOS, VtFlavor.SVT).i_off)

    def test_rejects_extreme_ratio(self, logic_node):
        with pytest.raises(ConfigurationError):
            logic_node.scaled(1 * nm)

    def test_rejects_nonpositive(self, logic_node):
        with pytest.raises(ConfigurationError):
            logic_node.scaled(0.0)


class TestValidation:
    def test_unknown_device_raises(self, logic_node):
        import dataclasses
        stripped = dataclasses.replace(
            logic_node,
            transistors={
                (Polarity.NMOS, VtFlavor.SVT):
                    logic_node.params(Polarity.NMOS, VtFlavor.SVT)
            },
        )
        with pytest.raises(ConfigurationError):
            stripped.params(Polarity.PMOS, VtFlavor.HVT)

    def test_inconsistent_supplies_rejected(self, logic_node):
        import dataclasses
        with pytest.raises(ConfigurationError):
            dataclasses.replace(logic_node, vdd=1.2, vdd_max=1.0)
