"""Leakage mechanism helpers.

The static-power comparison (paper Fig. 7c) is the heart of the paper's
claim: an SRAM cell *continuously* burns its leakage current, while a
DRAM cell's leakage only costs energy when the cell is refreshed.  These
helpers compute the ingredient currents; :mod:`repro.array.static_power`
assembles them into the figure.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tech.node import TechnologyNode
from repro.tech.transistor import Mosfet


def subthreshold_leakage(device: Mosfet, vds: float | None = None) -> float:
    """Subthreshold leakage of one off device, amperes."""
    return device.off_current(vds=vds)


def gate_leakage(device: Mosfet) -> float:
    """Gate tunnelling leakage of one on device, amperes."""
    return device.gate_leakage()


def junction_leakage(node: TechnologyNode, junction_width: float) -> float:
    """Reverse-biased junction + GIDL leakage, amperes.

    This is the current that discharges a DRAM cell through its access
    transistor drain and hence sets retention time.
    """
    if junction_width <= 0:
        raise ConfigurationError("junction width must be positive")
    return node.junction_leak_per_width * junction_width


def sram_cell_leakage(node: TechnologyNode, cell_device: Mosfet) -> float:
    """Leakage of one 6T SRAM cell, amperes.

    A 6T cell always has exactly two off NMOS and one off PMOS on the
    storage nodes plus one off access device; lumped here as ~3 device
    widths of subthreshold leakage plus gate leakage of the two on
    devices.  ``cell_device`` is a representative cell transistor.
    """
    sub = 3.0 * subthreshold_leakage(cell_device)
    gate = 2.0 * gate_leakage(cell_device)
    return sub + gate
