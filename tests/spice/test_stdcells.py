"""Tests for the inverter and the ring oscillator.

The ring-oscillator test is the transistor-level cross-check of the
analytic gate delay the whole architecture timing model rests on.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.spice import (
    Capacitor,
    Circuit,
    VoltageSource,
    add_inverter,
    build_ring_oscillator,
    crossing_time,
    dc,
    pulse,
    simulate_transient,
    solve_dc,
)
from repro.units import fF, ns, ps


class TestInverter:
    def test_dc_levels(self, logic_node):
        for vin, expect_high in ((0.0, True), (1.2, False)):
            c = Circuit("inv")
            c.add(VoltageSource("vdd", "vdd", "0", dc(1.2)))
            c.add(VoltageSource("vin", "a", "0", dc(vin)))
            add_inverter(c, logic_node, "x1", "a", "y")
            out = solve_dc(c)["y"]
            assert (out > 1.1) == expect_high

    def test_transient_inversion(self, logic_node):
        c = Circuit("inv-t")
        c.add(VoltageSource("vdd", "vdd", "0", dc(1.2)))
        c.add(VoltageSource("vin", "a", "0",
                            pulse(0.0, 1.2, delay=50 * ps, rise=10 * ps,
                                  width=10 * ns)))
        add_inverter(c, logic_node, "x1", "a", "y")
        c.add(Capacitor("cl", "y", "0", 5 * fF))
        result = simulate_transient(c, 1 * ns, 1 * ps,
                                    initial_voltages={"vdd": 1.2, "y": 1.2})
        fall = crossing_time(result, "y", 0.6, "fall")
        assert 50 * ps < fall < 300 * ps
        assert result.final_voltage("y") < 0.05


class TestRingOscillator:
    def test_oscillates(self, logic_node):
        circuit = build_ring_oscillator(logic_node, stages=5)
        initial = {"vdd": 1.2, "ring0": 0.0}
        for stage in range(1, 5):
            initial[f"ring{stage}"] = 1.2 if stage % 2 else 0.0
        result = simulate_transient(circuit, 1.0 * ns, 0.5 * ps,
                                    initial_voltages=initial)
        wave = result.voltage("ring0")
        # Real oscillation: multiple full swings in the window.
        crossings = np.sum(np.diff(wave > 0.6).astype(int) != 0)
        assert crossings >= 4

    def test_period_consistent_with_analytic_delay(self, logic_node):
        """Ring period = 2 * stages * t_stage; t_stage must agree with
        the analytic FO1-class delay within a factor of ~2.5 — the
        transistor-level anchor of the architecture timing model."""
        circuit = build_ring_oscillator(logic_node, stages=5)
        initial = {"vdd": 1.2, "ring0": 0.0}
        for stage in range(1, 5):
            initial[f"ring{stage}"] = 1.2 if stage % 2 else 0.0
        result = simulate_transient(circuit, 1.2 * ns, 0.5 * ps,
                                    initial_voltages=initial)
        t1 = crossing_time(result, "ring0", 0.6, "rise", start=0.2 * ns)
        t2 = crossing_time(result, "ring0", 0.6, "rise", start=t1 + 1e-12)
        period = t2 - t1
        stage_delay = period / (2 * 5)
        from repro.tech import Mosfet, Polarity, VtFlavor
        nmos = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                      width=logic_node.width_units(2.0))
        pmos = Mosfet(logic_node, Polarity.PMOS, VtFlavor.SVT,
                      width=logic_node.width_units(4.0))
        c_load = (nmos.gate_capacitance() + pmos.gate_capacitance()
                  + nmos.junction_capacitance()
                  + pmos.junction_capacitance())
        r_eff = 0.5 * (nmos.on_resistance() + pmos.on_resistance())
        analytic = 0.69 * r_eff * c_load
        assert stage_delay == pytest.approx(analytic, rel=1.5)
        assert 0.5 * ps < stage_delay < 50 * ps

    def test_even_ring_rejected(self, logic_node):
        with pytest.raises(ConfigurationError):
            build_ring_oscillator(logic_node, stages=4)

    def test_loaded_ring_slower(self, logic_node):
        def period(load):
            circuit = build_ring_oscillator(logic_node, stages=5,
                                            load_per_stage=load)
            initial = {"vdd": 1.2, "ring0": 0.0}
            for stage in range(1, 5):
                initial[f"ring{stage}"] = 1.2 if stage % 2 else 0.0
            result = simulate_transient(circuit, 2.5 * ns, 1 * ps,
                                        initial_voltages=initial)
            t1 = crossing_time(result, "ring0", 0.6, "rise",
                               start=0.3 * ns)
            t2 = crossing_time(result, "ring0", 0.6, "rise",
                               start=t1 + 1e-12)
            return t2 - t1

        assert period(10 * fF) > 2 * period(0.0)

