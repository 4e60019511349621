"""Analytic MOSFET model (Sakurai-Newton alpha-power law + subthreshold).

This is the device curve behind everything: the architecture-level
delay/energy estimators query it for on-current and capacitance, and the
:mod:`repro.spice` MOSFET element evaluates it inside Newton iterations.

The model is deliberately first-order — the paper's conclusions rest on
charge-sharing ratios, RC products and CV^2 energies, not on short-channel
subtleties — but it is smooth and monotonic, which the transient solver
requires.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigurationError
from repro.tech.node import Polarity, TechnologyNode, TransistorParams, VtFlavor


@dataclasses.dataclass(frozen=True)
class Mosfet:
    """A sized MOSFET instance on a given technology node.

    Parameters
    ----------
    node:
        Technology node supplying the process constants.
    polarity:
        NMOS or PMOS.
    flavor:
        Threshold flavour (LVT/SVT/HVT).
    width:
        Gate width in metres.  Use :meth:`TechnologyNode.width_units` to
        convert from the paper's 120 nm width units.
    length_factor:
        Drawn length as a multiple of the node feature size (1.0 =
        minimum length).  Longer devices trade drive for leakage; the
        DRAM cell access transistor uses ~1.5.
    """

    node: TechnologyNode
    polarity: Polarity
    flavor: VtFlavor
    width: float
    length_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"width must be positive, got {self.width}")
        if self.length_factor < 1.0:
            raise ConfigurationError(
                f"length_factor below minimum length: {self.length_factor}"
            )

    # -- derived process constants -----------------------------------------

    @property
    def params(self) -> TransistorParams:
        return self.node.params(self.polarity, self.flavor)

    @property
    def vth(self) -> float:
        """Zero-bias saturation threshold, positive for both polarities."""
        return self.params.vth

    def effective_vth(self, vds: float, vsb: float = 0.0) -> float:
        """Threshold including DIBL and (linearised) body effect."""
        p = self.params
        vth = p.vth - p.dibl * abs(vds) + p.body_effect * max(0.0, vsb)
        # DIBL can never push the device to depletion-mode in this model.
        return max(0.05, vth)

    # -- currents ------------------------------------------------------------

    def drain_current(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Drain current magnitude, amperes, for terminal-magnitude voltages.

        ``vgs`` and ``vds`` are magnitudes: pass positive numbers for both
        polarities (the SPICE element handles sign conventions).  The
        curve blends smoothly between subthreshold and strong inversion
        so that Newton iteration converges.
        """
        if vds < 0:
            raise ConfigurationError("drain_current expects vds magnitude >= 0")
        p = self.params
        vth = self.effective_vth(vds, vsb)
        vod = vgs - vth
        i_sub = self._subthreshold_current(vgs, vds, vth)
        if vod <= 0:
            return i_sub
        drive = p.k_sat / self.length_factor
        i_dsat = drive * self.width * vod ** p.alpha
        vdsat = max(0.05, 0.5 * vod)
        if vds >= vdsat:
            i_strong = i_dsat * (1.0 + 0.05 * (vds - vdsat))  # mild CLM
        else:
            ratio = vds / vdsat
            i_strong = i_dsat * ratio * (2.0 - ratio)
        # Near vgs ~ vth both mechanisms carry current; summing them (the
        # EKV-style interpolation) keeps the curve smooth, which the
        # Newton solver needs — a max() here creates a derivative kink
        # that can trap the iteration in a limit cycle.
        return i_strong + i_sub

    def _subthreshold_current(self, vgs: float, vds: float, vth: float) -> float:
        p = self.params
        vt_thermal = self.node.thermal_voltage
        # i_off is specified at vgs=0, vds=vdd with the DIBL-reduced vth;
        # normalise so the curve passes through that anchor point.  The
        # exponential is only valid below threshold: cap vgs at vth so the
        # branch saturates and strong inversion takes over above it.
        vth_at_ioff = max(0.05, p.vth - p.dibl * self.node.vdd)
        exponent = (min(vgs, vth) - (vth - vth_at_ioff)) / p.subthreshold_swing
        i = p.i_off * self.width / self.length_factor * 10.0 ** exponent
        if vds < 5 * vt_thermal:
            i *= 1.0 - math.exp(-vds / vt_thermal)
        return i

    def on_current(self, vgs: float | None = None) -> float:
        """Saturation drive at ``vgs`` (default: nominal vdd)."""
        vgs = self.node.vdd if vgs is None else vgs
        return self.drain_current(vgs=vgs, vds=self.node.vdd)

    def off_current(self, vds: float | None = None) -> float:
        """Subthreshold leakage at ``vgs = 0``."""
        vds = self.node.vdd if vds is None else vds
        return self.drain_current(vgs=0.0, vds=vds)

    # -- capacitances ----------------------------------------------------------

    def gate_capacitance(self) -> float:
        """Total gate capacitance, farads."""
        return self.node.gate_cap_per_width * self.width * self.length_factor

    def junction_capacitance(self) -> float:
        """Drain (or source) junction capacitance, farads."""
        return self.node.junction_cap_per_width * self.width

    def gate_leakage(self) -> float:
        """Gate tunnelling leakage at full gate bias, amperes."""
        gate_area = self.width * self.node.feature_size * self.length_factor
        return self.node.gate_leak_per_area * gate_area

    # -- small-signal-ish helpers used by the architecture model --------------

    def on_resistance(self, vgs: float | None = None) -> float:
        """Effective switching resistance ~ vdd / (2 * Ion).

        The factor 2 averages the current over the output transition, the
        standard RC-delay approximation.
        """
        i_on = self.on_current(vgs)
        if i_on <= 0:
            raise ConfigurationError("device has no drive at the given bias")
        return self.node.vdd / (2.0 * i_on)

    def scaled(self, width_ratio: float) -> "Mosfet":
        """Return a copy with the width multiplied by ``width_ratio``."""
        if width_ratio <= 0:
            raise ConfigurationError("width ratio must be positive")
        return dataclasses.replace(self, width=self.width * width_ratio)

    def with_vth_shift(self, shift: float) -> "Mosfet":
        """Return a copy whose threshold is shifted by ``shift`` volts.

        This is how Monte-Carlo mismatch enters circuit simulation: each
        sampled device instance carries its own Pelgrom VT draw.  The
        subthreshold leakage moves consistently with the shift (one
        decade per swing).  The copy keeps this device's node and
        carries its own shifted transistor card, so a draw costs one
        small object, not a rebuilt node.
        """
        p = self.params
        vth = p.vth + shift
        if vth <= 0.05:
            raise ConfigurationError(
                f"vth shift {shift:+.3f} V leaves no threshold")
        i_off = p.i_off * 10.0 ** (-shift / p.subthreshold_swing)
        return _ShiftedMosfet(self.node, self.polarity, self.flavor,
                              self.width, self.length_factor,
                              dataclasses.replace(p, vth=vth, i_off=i_off))


@dataclasses.dataclass(frozen=True)
class _ShiftedMosfet(Mosfet):
    """A :class:`Mosfet` whose transistor card is ``card``, its own
    VT-shifted copy of the node's (see :meth:`Mosfet.with_vth_shift`)."""

    # Always passed; the default only satisfies the field order after
    # Mosfet's defaulted length_factor.
    card: TransistorParams = None  # type: ignore[assignment]

    @property
    def params(self) -> TransistorParams:
        return self.card
