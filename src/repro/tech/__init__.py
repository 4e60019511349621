"""Technology substrate: 90 nm device, wire and capacitor models.

This package replaces the foundry PDK the paper used.  It provides
analytic, calibrated models of:

* :class:`~repro.tech.node.TechnologyNode` — process constants for the
  90 nm logic process of the scratch-pad design and the 90 nm DRAM
  process of the final estimate (paper Fig. 6, "DRAM tech estimation").
* :class:`~repro.tech.transistor.Mosfet` — alpha-power-law MOSFET with
  subthreshold and leakage behaviour, used both directly by the
  architecture model and as the device curve behind the
  :mod:`repro.spice` MOSFET element.
* :class:`~repro.tech.wire.Wire` — interconnect RC.
* :class:`~repro.tech.capacitor` — storage capacitors (CMOS gate cap,
  deep trench).
"""

from repro.tech.node import TechnologyNode, TransistorParams, VtFlavor, Polarity
from repro.tech.transistor import Mosfet
from repro.tech.wire import Wire, WireLayer
from repro.tech.capacitor import StorageCapacitor, CapacitorKind
from repro.tech.corners import Corner, apply_corner
from repro.tech.leakage import (
    subthreshold_leakage,
    gate_leakage,
    junction_leakage,
)

__all__ = [
    "TechnologyNode",
    "TransistorParams",
    "VtFlavor",
    "Polarity",
    "Mosfet",
    "Wire",
    "WireLayer",
    "StorageCapacitor",
    "CapacitorKind",
    "Corner",
    "apply_corner",
    "subthreshold_leakage",
    "gate_leakage",
    "junction_leakage",
]
