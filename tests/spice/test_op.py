"""Tests for the DC operating-point solver."""

import pytest

from repro.spice import (
    Circuit,
    CurrentSource,
    MosfetElement,
    Resistor,
    VoltageSource,
    dc,
    solve_dc,
)
from repro.tech import Mosfet, Polarity, VtFlavor
from repro.units import kohm, um


class TestLinear:
    def test_divider(self):
        c = Circuit("div")
        c.add(VoltageSource("v1", "in", "0", dc(1.2)))
        c.add(Resistor("r1", "in", "mid", 2 * kohm))
        c.add(Resistor("r2", "mid", "0", 1 * kohm))
        op = solve_dc(c)
        assert op["mid"] == pytest.approx(0.4, abs=1e-6)
        assert op["in"] == pytest.approx(1.2, abs=1e-9)

    def test_current_source_into_resistor(self):
        c = Circuit("ir")
        c.add(CurrentSource("i1", "0", "out", dc(1e-3)))
        c.add(Resistor("r1", "out", "0", 1 * kohm))
        op = solve_dc(c)
        assert op["out"] == pytest.approx(1.0, abs=1e-6)

    def test_two_sources_superpose(self):
        c = Circuit("two")
        c.add(VoltageSource("v1", "a", "0", dc(1.0)))
        c.add(VoltageSource("v2", "b", "0", dc(2.0)))
        c.add(Resistor("r1", "a", "mid", 1 * kohm))
        c.add(Resistor("r2", "b", "mid", 1 * kohm))
        c.add(Resistor("r3", "mid", "0", 1e9))
        op = solve_dc(c)
        assert op["mid"] == pytest.approx(1.5, rel=1e-3)


class TestNonlinear:
    def test_inverter_logic_levels(self, logic_node):
        nmos = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=1 * um)
        pmos = Mosfet(logic_node, Polarity.PMOS, VtFlavor.SVT, width=2 * um)

        def inverter(vin: float) -> float:
            c = Circuit("inv")
            c.add(VoltageSource("vdd", "vdd", "0", dc(1.2)))
            c.add(VoltageSource("vin", "in", "0", dc(vin)))
            c.add(MosfetElement("mn", "out", "in", "0", nmos))
            c.add(MosfetElement("mp", "out", "in", "vdd", pmos))
            return solve_dc(c)["out"]

        assert inverter(0.0) > 1.1
        assert inverter(1.2) < 0.1

    def test_inverter_transition_monotone(self, logic_node):
        nmos = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=1 * um)
        pmos = Mosfet(logic_node, Polarity.PMOS, VtFlavor.SVT, width=2 * um)
        outputs = []
        for vin in (0.0, 0.3, 0.5, 0.7, 0.9, 1.2):
            c = Circuit("inv")
            c.add(VoltageSource("vdd", "vdd", "0", dc(1.2)))
            c.add(VoltageSource("vin", "in", "0", dc(vin)))
            c.add(MosfetElement("mn", "out", "in", "0", nmos))
            c.add(MosfetElement("mp", "out", "in", "vdd", pmos))
            outputs.append(solve_dc(c)["out"])
        assert all(b <= a + 1e-6 for a, b in zip(outputs, outputs[1:]))

    def test_diode_connected_drop(self, logic_node):
        """Diode-connected NMOS fed by a current source settles near vth."""
        nmos = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT, width=10 * um)
        c = Circuit("diode")
        c.add(CurrentSource("i1", "0", "d", dc(10e-6)))
        c.add(MosfetElement("m1", "d", "d", "0", nmos))
        op = solve_dc(c)
        assert 0.2 < op["d"] < 0.6

    def test_initial_guess_accepted(self, logic_node):
        c = Circuit("div")
        c.add(VoltageSource("v1", "in", "0", dc(1.2)))
        c.add(Resistor("r1", "in", "mid", 1 * kohm))
        c.add(Resistor("r2", "mid", "0", 1 * kohm))
        op = solve_dc(c, initial_guess={"mid": 0.6})
        assert op["mid"] == pytest.approx(0.6, abs=1e-6)

    def test_time_dependent_source_sampled_at_time(self):
        from repro.spice import pulse
        c = Circuit("pulse-op")
        c.add(VoltageSource("v1", "in", "0",
                            pulse(0.0, 1.0, delay=1e-9, rise=1e-12,
                                  width=10e-9)))
        c.add(Resistor("r1", "in", "0", 1 * kohm))
        assert solve_dc(c, time=0.0)["in"] == pytest.approx(0.0, abs=1e-9)
        assert solve_dc(c, time=5e-9)["in"] == pytest.approx(1.0, abs=1e-9)
