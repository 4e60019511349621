"""Tests for interconnect RC models."""

import pytest

from repro.errors import ConfigurationError
from repro.tech.wire import (
    GLOBAL_LAYER,
    INTERMEDIATE_LAYER,
    LOCAL_LAYER,
    Wire,
    WireLayer,
)
from repro.units import fF, um


class TestWireLayer:
    def test_stack_resistance_ordering(self):
        # Thicker upper metals are less resistive.
        assert (LOCAL_LAYER.resistance_per_length
                > INTERMEDIATE_LAYER.resistance_per_length
                > GLOBAL_LAYER.resistance_per_length)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            WireLayer("bad", resistance_per_length=0.0,
                      capacitance_per_length=1.0)


class TestWire:
    def test_rc_proportional_to_length(self):
        short = Wire(LOCAL_LAYER, 10 * um)
        long = Wire(LOCAL_LAYER, 20 * um)
        assert long.resistance == pytest.approx(2 * short.resistance)
        assert long.capacitance == pytest.approx(2 * short.capacitance)

    def test_zero_length_allowed(self):
        wire = Wire(LOCAL_LAYER, 0.0)
        assert wire.capacitance == 0.0

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            Wire(LOCAL_LAYER, -1 * um)

    def test_elmore_reduces_to_lumped_rc(self):
        """With negligible wire R the delay is 0.69 * Rdrv * Ctotal."""
        wire = Wire(GLOBAL_LAYER, 1 * um)
        delay = wire.elmore_delay(driver_resistance=1e3,
                                  load_capacitance=100 * fF)
        lumped = 0.69 * 1e3 * (wire.capacitance + 100 * fF)
        assert delay == pytest.approx(lumped, rel=0.01)

    def test_elmore_monotone_in_length(self):
        delays = [Wire(LOCAL_LAYER, l * um).elmore_delay(1e3, 1 * fF)
                  for l in (10, 50, 100, 500)]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_elmore_rejects_negative_driver(self):
        with pytest.raises(ConfigurationError):
            Wire(LOCAL_LAYER, 1 * um).elmore_delay(-1.0)

    def test_full_swing_energy_is_cv2(self):
        wire = Wire(INTERMEDIATE_LAYER, 100 * um)
        assert wire.energy(swing=1.2) == pytest.approx(
            wire.capacitance * 1.2 ** 2)

    def test_low_swing_energy_linear_in_swing(self):
        """The GBL trick: 0.1 V swing off a 0.4 V rail costs C*0.1*0.4."""
        wire = Wire(INTERMEDIATE_LAYER, 100 * um)
        low = wire.energy(swing=0.1, supply=0.4)
        full = wire.energy(swing=1.2)
        assert low == pytest.approx(wire.capacitance * 0.1 * 0.4)
        assert full / low == pytest.approx(36.0, rel=0.01)

    def test_energy_rejects_negative_swing(self):
        with pytest.raises(ConfigurationError):
            Wire(LOCAL_LAYER, 1 * um).energy(-0.5)

