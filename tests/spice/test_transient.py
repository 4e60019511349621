"""Tests for the transient engine against closed-form circuit behaviour."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    VoltageSource,
    crossing_time,
    dc,
    pulse,
    simulate_transient,
)
from repro.units import kohm, ns, pF, ps


def rc_circuit(tau_r=1 * kohm, tau_c=1 * pF) -> Circuit:
    c = Circuit("rc")
    c.add(VoltageSource("v1", "in", "0",
                        pulse(0.0, 1.0, delay=0.1 * ns, rise=1 * ps,
                              width=1000 * ns)))
    c.add(Resistor("r1", "in", "out", tau_r))
    c.add(Capacitor("c1", "out", "0", tau_c))
    return c


class TestRcCharge:
    def test_time_constant(self):
        result = simulate_transient(rc_circuit(), 8 * ns, 5 * ps)
        t63 = crossing_time(result, "out", 1 - math.exp(-1), "rise")
        assert (t63 - 0.1 * ns) == pytest.approx(1 * ns, rel=0.02)

    def test_final_value(self):
        result = simulate_transient(rc_circuit(), 10 * ns, 10 * ps)
        assert result.final_voltage("out") == pytest.approx(1.0, abs=1e-3)

    def test_backward_euler_is_first_order(self):
        """On a smooth RC decay (no source edges) halving the step
        halves backward Euler's error at t = tau: 1.77e-2 at 100 ps,
        9.0e-3 at 50 ps."""
        analytic = math.exp(-1)

        def error(dt: float) -> float:
            c = Circuit("decay")
            c.add(Resistor("r1", "a", "0", 1 * kohm))
            c.add(Capacitor("c1", "a", "0", 1 * pF, initial_voltage=1.0))
            result = simulate_transient(c, 2 * ns, dt)
            idx = int(round(1e-9 / dt))  # sample at t = tau
            return abs(float(result.voltage("a")[idx]) - analytic)

        assert 0.45 <= error(50 * ps) / error(100 * ps) <= 0.55

    def test_initial_conditions_respected(self):
        c = Circuit("ic")
        c.add(Resistor("r1", "a", "0", 1 * kohm))
        c.add(Capacitor("c1", "a", "0", 1 * pF, initial_voltage=1.0))
        result = simulate_transient(c, 5 * ns, 5 * ps)
        assert result.voltage("a")[0] == pytest.approx(1.0)
        # Discharges with tau = 1 ns.
        t37 = crossing_time(result, "a", math.exp(-1), "fall")
        assert t37 == pytest.approx(1 * ns, rel=0.02)

    def test_explicit_initial_voltages_override(self):
        c = Circuit("ic2")
        c.add(Resistor("r1", "a", "0", 1 * kohm))
        c.add(Capacitor("c1", "a", "0", 1 * pF, initial_voltage=1.0))
        result = simulate_transient(c, 1 * ns, 5 * ps,
                                    initial_voltages={"a": 0.5})
        assert result.voltage("a")[0] == pytest.approx(0.5)


class TestChargeConservation:
    def test_capacitive_divider(self):
        """Two caps sharing charge settle at the capacitance-weighted mean."""
        c = Circuit("share")
        c.add(Capacitor("c1", "a", "0", 3 * pF, initial_voltage=1.0))
        c.add(Capacitor("c2", "b", "0", 1 * pF, initial_voltage=0.0))
        c.add(Resistor("r1", "a", "b", 1 * kohm))
        result = simulate_transient(c, 50 * ns, 20 * ps)
        expected = 3.0 / 4.0
        assert result.final_voltage("a") == pytest.approx(expected, rel=1e-3)
        assert result.final_voltage("b") == pytest.approx(expected, rel=1e-3)


class TestResultAccess:
    def test_time_axis(self):
        result = simulate_transient(rc_circuit(), 1 * ns, 100 * ps)
        assert len(result.time) == 11
        assert result.time[0] == 0.0
        assert result.time[-1] == pytest.approx(1 * ns)

    def test_ground_voltage_is_zero(self):
        result = simulate_transient(rc_circuit(), 1 * ns, 100 * ps)
        assert np.all(result.voltage("0") == 0.0)

    def test_unknown_node_raises(self):
        result = simulate_transient(rc_circuit(), 1 * ns, 100 * ps)
        with pytest.raises(SimulationError):
            result.voltage("nope")

    def test_unknown_source_raises(self):
        result = simulate_transient(rc_circuit(), 1 * ns, 100 * ps)
        with pytest.raises(SimulationError):
            result.branch_current("r1")

    def test_branch_current_sign_convention(self):
        """A delivering source carries negative branch current."""
        result = simulate_transient(rc_circuit(), 1 * ns, 10 * ps)
        i = result.branch_current("v1")
        # While charging, current is delivered (negative by convention).
        assert i[30] < 0


class TestArgumentValidation:
    def test_rejects_zero_tstop(self):
        with pytest.raises(ConfigurationError, match="t_stop"):
            simulate_transient(rc_circuit(), 0.0, 1 * ps)

    def test_rejects_negative_dt(self):
        with pytest.raises(ConfigurationError, match="dt"):
            simulate_transient(rc_circuit(), 1 * ns, -1 * ps)

    def test_rejects_non_finite_grid(self):
        import math
        with pytest.raises(ConfigurationError, match="not finite"):
            simulate_transient(rc_circuit(), math.nan, 1 * ps)
        with pytest.raises(ConfigurationError, match="not finite"):
            simulate_transient(rc_circuit(), 1 * ns, math.inf)

    def test_rejects_dt_longer_than_tstop(self):
        with pytest.raises(ConfigurationError, match="exceeds t_stop"):
            simulate_transient(rc_circuit(), 1 * ps, 1 * ns)

    def test_singular_circuit_raises(self):
        c = Circuit("singular")
        # A node connected only through a current source loop to itself
        # cannot be solved.
        from repro.spice import CurrentSource
        c.add(CurrentSource("i1", "0", "a", dc(1e-3)))
        with pytest.raises(SimulationError):
            simulate_transient(c, 1 * ns, 100 * ps)
