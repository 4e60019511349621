"""Property-based tests of the circuit simulator.

The MNA engine must respect circuit laws for *any* parameter values:
voltage dividers divide, charge is conserved, energy is non-negative
into passive networks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    VoltageSource,
    dc,
    simulate_transient,
    solve_dc,
)

resistances = st.floats(min_value=10.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)
voltages = st.floats(min_value=-5.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False)
capacitances = st.floats(min_value=1e-15, max_value=1e-11,
                         allow_nan=False, allow_infinity=False)


class TestDcLaws:
    @given(v=voltages, r1=resistances, r2=resistances)
    @settings(max_examples=60, deadline=None)
    def test_divider_divides(self, v, r1, r2):
        c = Circuit("div")
        c.add(VoltageSource("v1", "in", "0", dc(v)))
        c.add(Resistor("r1", "in", "mid", r1))
        c.add(Resistor("r2", "mid", "0", r2))
        op = solve_dc(c)
        expected = v * r2 / (r1 + r2)
        assert op["mid"] == pytest.approx(expected, abs=1e-6 + 1e-3 * abs(v))

    @given(v=voltages, r1=resistances, r2=resistances, r3=resistances)
    @settings(max_examples=40, deadline=None)
    def test_kcl_at_star_node(self, v, r1, r2, r3):
        """Currents into the star point sum to zero."""
        c = Circuit("star")
        c.add(VoltageSource("v1", "in", "0", dc(v)))
        c.add(Resistor("r1", "in", "star", r1))
        c.add(Resistor("r2", "star", "0", r2))
        c.add(Resistor("r3", "star", "0", r3))
        op = solve_dc(c)
        i_in = (op["in"] - op["star"]) / r1
        i_out = op["star"] / r2 + op["star"] / r3
        assert i_in == pytest.approx(i_out, abs=1e-9 + 1e-6 * abs(i_in))

    @given(v=voltages.filter(lambda x: abs(x) > 0.01), r1=resistances)
    @settings(max_examples=40, deadline=None)
    def test_voltage_source_enforced(self, v, r1):
        c = Circuit("vs")
        c.add(VoltageSource("v1", "a", "0", dc(v)))
        c.add(Resistor("r1", "a", "0", r1))
        assert solve_dc(c)["a"] == pytest.approx(v, rel=1e-6)


class TestTransientLaws:
    @given(c1=capacitances, c2=capacitances, v0=st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_charge_conservation(self, c1, c2, v0):
        """Charge sharing: q before == q after, for any caps and level."""
        circuit = Circuit("share")
        circuit.add(Capacitor("c1", "a", "0", c1, initial_voltage=v0))
        circuit.add(Capacitor("c2", "b", "0", c2, initial_voltage=0.0))
        circuit.add(Resistor("r", "a", "b", 1e3))
        tau = 1e3 * (c1 * c2 / (c1 + c2))
        result = simulate_transient(circuit, t_stop=20 * tau,
                                    dt=max(tau / 50, 1e-15))
        expected = v0 * c1 / (c1 + c2)
        assert result.final_voltage("a") == pytest.approx(expected, rel=0.02)
        assert result.final_voltage("b") == pytest.approx(expected, rel=0.02)

    @given(r=resistances, cap=capacitances, v=st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_source_energy_cv2(self, r, cap, v):
        """Charging any RC from a step source draws exactly C*V^2."""
        from repro.spice import pulse, source_energy
        tau = r * cap
        circuit = Circuit("rc")
        circuit.add(VoltageSource("v1", "in", "0",
                                  pulse(0.0, v, delay=tau / 10,
                                        rise=tau / 100, width=1e6 * tau)))
        circuit.add(Resistor("r1", "in", "out", r))
        circuit.add(Capacitor("c1", "out", "0", cap))
        result = simulate_transient(circuit, t_stop=12 * tau, dt=tau / 80)
        assert source_energy(result, "v1") == pytest.approx(
            cap * v * v, rel=0.05)
