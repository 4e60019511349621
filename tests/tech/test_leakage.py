"""Tests for leakage mechanism helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.tech import (
    Mosfet,
    Polarity,
    VtFlavor,
    gate_leakage,
    junction_leakage,
    subthreshold_leakage,
)
from repro.tech.leakage import sram_cell_leakage
from repro.units import um


class TestSubthreshold:
    def test_matches_device_off_current(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=1 * um)
        assert subthreshold_leakage(device) == pytest.approx(
            device.off_current())

    def test_hvt_below_svt(self, logic_node):
        svt = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=1 * um)
        hvt = Mosfet(logic_node, Polarity.NMOS, VtFlavor.HVT, width=1 * um)
        assert subthreshold_leakage(hvt) < subthreshold_leakage(svt)


class TestJunction:
    def test_scales_with_width(self, logic_node):
        assert junction_leakage(logic_node, 2 * um) == pytest.approx(
            2 * junction_leakage(logic_node, 1 * um))

    def test_rejects_nonpositive_width(self, logic_node):
        with pytest.raises(ConfigurationError):
            junction_leakage(logic_node, 0.0)


class TestSramCell:
    def test_cell_leakage_order_of_magnitude(self, logic_node):
        """~3 off devices of ~0.24 um SVT: a few hundred pA at 300 K."""
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=0.24 * um)
        cell = sram_cell_leakage(logic_node, device)
        assert 1e-10 < cell < 3e-9

    def test_dominated_by_subthreshold(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=0.24 * um)
        cell = sram_cell_leakage(logic_node, device)
        sub = 3 * subthreshold_leakage(device)
        assert sub / cell > 0.9

    def test_gate_leakage_positive(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=1 * um)
        assert gate_leakage(device) > 0
