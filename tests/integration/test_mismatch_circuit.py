"""Circuit-level validation of the mismatch/offset model.

The architecture model takes the local SA's input offset from the
Pelgrom analytic (``SenseAmplifier.raw_offset_sigma``).  Here the same
offset is injected into the transistor-level latch (a VT shift on one
input device) and the circuit's decision is checked: differentials
below the injected offset mis-resolve, differentials above it resolve
correctly — tying :mod:`repro.variability` to :mod:`repro.spice`.
"""

import dataclasses

import numpy as np
import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    MosfetElement,
    Switch,
    VoltageSource,
    dc,
    pulse,
    simulate_transient,
)
from repro.spice.stampplan import _mosfet_constants
from repro.tech import Mosfet, Polarity, VtFlavor
from repro.units import fF, ns, ps


def resolve(logic_node, differential: float, vth_shift: float) -> bool:
    """Returns True when the latch resolves 'bit' high.

    ``differential`` is V(bit) - V(bitb) at enable; ``vth_shift`` is
    applied to the NMOS whose gate is 'bitb' (it discharges 'bit'): a
    *negative* shift strengthens it and biases the latch against 'bit'.
    """
    sa_n = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                  width=logic_node.width_units(4.0))
    sa_p = Mosfet(logic_node, Polarity.PMOS, VtFlavor.SVT,
                  width=logic_node.width_units(6.0))
    c = Circuit("sa-offset")
    c.add(VoltageSource("vdd", "vdd", "0", dc(1.2)))
    c.add(VoltageSource("ven", "en", "0",
                        pulse(0.0, 1.2, delay=0.2 * ns, rise=20 * ps,
                              width=10 * ns)))
    common = 0.6
    c.add(Capacitor("cb", "bit", "0", 10 * fF,
                    initial_voltage=common + differential / 2))
    c.add(Capacitor("cbb", "bitb", "0", 10 * fF,
                    initial_voltage=common - differential / 2))
    c.add(MosfetElement("mn1", "bit", "bitb", "tail",
                        sa_n.with_vth_shift(vth_shift)))
    c.add(MosfetElement("mn2", "bitb", "bit", "tail", sa_n))
    c.add(MosfetElement("mp1", "bit", "bitb", "head", sa_p))
    c.add(MosfetElement("mp2", "bitb", "bit", "head", sa_p))
    c.add(Switch("swf", "tail", "0", "en", "0", threshold=0.6, r_on=500.0))
    c.add(Switch("swh", "head", "vdd", "en", "0", threshold=0.6,
                 r_on=500.0))
    result = simulate_transient(
        c, 2 * ns, 1 * ps,
        initial_voltages={"vdd": 1.2,
                          "bit": common + differential / 2,
                          "bitb": common - differential / 2})
    return result.final_voltage("bit") > 0.6


class TestOffsetInjection:
    def test_balanced_latch_follows_input(self, logic_node):
        assert resolve(logic_node, differential=+0.02, vth_shift=0.0)
        assert not resolve(logic_node, differential=-0.02, vth_shift=0.0)

    def test_offset_flips_small_differential(self, logic_node):
        """A strengthened bit-discharging device (-60 mV on mn1) defeats
        a +20 mV input — the circuit form of input-referred offset."""
        assert not resolve(logic_node, differential=+0.02,
                           vth_shift=-0.060)

    def test_large_differential_overcomes_offset(self, logic_node):
        assert resolve(logic_node, differential=+0.15, vth_shift=-0.060)

    def test_circuit_offset_matches_injected_shift(self, logic_node):
        """Bisect the flipping differential: it must land within a
        factor ~2 of the injected VT shift (input-referred offset of a
        source-coupled latch ~ its VT mismatch)."""
        shift = -0.050
        lo, hi = 0.0, 0.3
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if resolve(logic_node, differential=mid, vth_shift=shift):
                hi = mid
            else:
                lo = mid
        threshold = 0.5 * (lo + hi)
        assert 0.4 * abs(shift) < threshold < 2.5 * abs(shift)


class TestVthShiftModel:
    def test_shift_moves_threshold(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=1e-6)
        shifted = device.with_vth_shift(+0.05)
        assert shifted.vth == pytest.approx(device.vth + 0.05)

    def test_leakage_tracks_shift(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=1e-6)
        swing = device.params.subthreshold_swing
        shifted = device.with_vth_shift(swing)
        assert shifted.off_current() == pytest.approx(
            device.off_current() / 10.0, rel=0.05)

    def test_drive_weakens_with_positive_shift(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=1e-6)
        assert device.with_vth_shift(+0.1).on_current() < device.on_current()

    def test_extreme_shift_rejected(self, logic_node):
        from repro.errors import ConfigurationError
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=1e-6)
        with pytest.raises(ConfigurationError):
            device.with_vth_shift(-0.4)

    def test_original_unmodified(self, logic_node):
        device = Mosfet(logic_node, Polarity.NMOS, VtFlavor.SVT,
                        width=1e-6)
        before = device.vth
        device.with_vth_shift(0.1)
        assert device.vth == before

    @pytest.mark.parametrize("polarity", [Polarity.NMOS, Polarity.PMOS])
    def test_solver_constants_match_a_rebuilt_node(self, logic_node,
                                                   polarity):
        """A shifted device keeps its node and carries its own card; the
        solver reads the same constants, bit for bit, as from a device
        on a node rebuilt around that card, shift after shift."""
        def rebuilt(device, shift):
            p = device.params
            card = dataclasses.replace(
                p, vth=p.vth + shift,
                i_off=p.i_off * 10.0 ** (-shift / p.subthreshold_swing))
            node = dataclasses.replace(device.node, transistors={
                **device.node.transistors, (polarity, VtFlavor.HVT): card})
            return dataclasses.replace(device, node=node)

        def constants(device):
            element = MosfetElement("m", "d", "g", "s", device)
            return np.array(_mosfet_constants(element)).tobytes()

        device = Mosfet(logic_node, polarity, VtFlavor.HVT, width=7e-7,
                        length_factor=1.5)
        shifted, reference = device, device
        for shift in (0.0312, -0.0173, 0.0):
            shifted = shifted.with_vth_shift(shift)
            reference = rebuilt(reference, shift)
            assert shifted.node is logic_node
            assert constants(shifted) == constants(reference)
        assert shifted.params != device.params
        assert device.params is logic_node.params(polarity, VtFlavor.HVT)
