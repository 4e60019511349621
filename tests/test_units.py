"""Tests for repro.units."""

import pytest

from repro import units
from repro.units import clamp, db, parallel, si_format


class TestMultipliers:
    def test_time_chain(self):
        assert units.ms == 1e3 * units.us == 1e6 * units.ns == 1e9 * units.ps

    def test_capacitance_chain(self):
        assert units.pF == 1e3 * units.fF
        assert 11 * units.fF == pytest.approx(11e-15)

    def test_energy_power_consistency(self):
        # 1 pJ per ns is 1 mW.
        assert (1 * units.pJ) / (1 * units.ns) == pytest.approx(1 * units.mW)

    def test_memory_sizes(self):
        assert units.Mb == 1024 * units.kb
        assert 128 * units.kb == 131072


class TestSiFormat:
    def test_nanoseconds(self):
        assert si_format(1.3e-9, "s") == "1.3 ns"

    def test_zero(self):
        assert si_format(0.0, "F") == "0 F"

    def test_no_unit(self):
        assert si_format(2.5e3) == "2.5 k"

    def test_negative(self):
        assert si_format(-4.7e-12, "J") == "-4.7 pJ"

    def test_large(self):
        assert si_format(3.2e9, "Hz") == "3.2 GHz"

    def test_sub_atto_clamps_to_smallest_prefix(self):
        text = si_format(1e-20, "F")
        assert "aF" in text


class TestDb:
    def test_10x_is_10db(self):
        assert db(10.0) == pytest.approx(10.0)

    def test_unity_is_zero(self):
        assert db(1.0) == pytest.approx(0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            db(0.0)
        with pytest.raises(ValueError):
            db(-3.0)


class TestParallel:
    def test_two_equal(self):
        assert parallel(2.0, 2.0) == pytest.approx(1.0)

    def test_single_value(self):
        assert parallel(7.0) == pytest.approx(7.0)

    def test_three_values(self):
        assert parallel(3.0, 3.0, 3.0) == pytest.approx(1.0)

    def test_dominated_by_smallest(self):
        assert parallel(1.0, 1e9) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parallel()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parallel(1.0, 0.0)


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)
