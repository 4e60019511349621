"""Interconnect RC models.

Wire loads enter the architecture model the same way the paper's layout
extraction did: as a capacitance (for CV^2 energy) and an RC product (for
delay).  Three representative 90 nm wire layers are provided; the array
model picks local/intermediate/global layers for LBL/LWL/GBL/GWL nets.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.units import fF, ohm, um


@dataclasses.dataclass(frozen=True)
class WireLayer:
    """Per-length electrical constants of a metal layer."""

    name: str
    resistance_per_length: float  # ohm / m
    capacitance_per_length: float  # F / m

    def __post_init__(self) -> None:
        if self.resistance_per_length <= 0 or self.capacitance_per_length <= 0:
            raise ConfigurationError(
                f"wire layer {self.name} needs positive R and C per length"
            )


# 90 nm back-end stack, calibrated to ITRS-class numbers.  Local (M1/M2)
# wires are thin and resistive; global (top metal) wires are thick.
LOCAL_LAYER = WireLayer(
    name="local", resistance_per_length=1.6 * ohm / um,
    capacitance_per_length=0.20 * fF / um,
)
INTERMEDIATE_LAYER = WireLayer(
    name="intermediate", resistance_per_length=0.6 * ohm / um,
    capacitance_per_length=0.23 * fF / um,
)
GLOBAL_LAYER = WireLayer(
    name="global", resistance_per_length=0.12 * ohm / um,
    capacitance_per_length=0.26 * fF / um,
)


@dataclasses.dataclass(frozen=True)
class Wire:
    """A wire segment of a given length on a given layer."""

    layer: WireLayer
    length: float  # metres

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ConfigurationError(f"wire length must be >= 0, got {self.length}")

    @property
    def resistance(self) -> float:
        return self.layer.resistance_per_length * self.length

    @property
    def capacitance(self) -> float:
        return self.layer.capacitance_per_length * self.length

    def elmore_delay(self, driver_resistance: float, load_capacitance: float = 0.0) -> float:
        """50 % Elmore delay of driver + distributed wire + lumped load.

        ``0.69 * (Rdrv * (Cw + CL) + Rw * (Cw/2 + CL))``
        """
        if driver_resistance < 0 or load_capacitance < 0:
            raise ConfigurationError("driver resistance and load must be >= 0")
        r_w, c_w = self.resistance, self.capacitance
        tau = driver_resistance * (c_w + load_capacitance) + r_w * (
            0.5 * c_w + load_capacitance
        )
        return 0.69 * tau

    def energy(self, swing: float, supply: float | None = None) -> float:
        """Energy drawn from ``supply`` to swing the wire by ``swing`` volts.

        For a full-swing rail-to-rail transition pass ``swing == supply``
        (C * V^2 drawn, half dissipated per edge as usual).  For low-swing
        signalling (the paper's GBL: 0.4 V -> 0.3 V) the supply charge is
        ``C * swing`` taken from the low-swing supply rail.
        """
        if swing < 0:
            raise ConfigurationError("swing must be >= 0")
        supply = swing if supply is None else supply
        return self.capacitance * swing * supply

