"""Nonlinear MOSFET circuit element.

Wraps a :class:`repro.tech.transistor.Mosfet` device card.  The element
is *bidirectional*: source and drain are decided by the instantaneous
terminal voltages, which is what makes pass-transistor behaviour (the
DRAM cell access device, the write-after-read loop-cut switch of paper
Fig. 4) come out right during charge sharing.

The Newton companion model (compiled by
:class:`~repro.spice.stampplan.StampPlan`) linearises the current around
the present iterate with finite-difference transconductances, stepping
each terminal by ``_FD_STEP``.  Because the device current depends only
on ``(vg - vs, vd - vs)``, the source transconductance follows exactly as
``gs = -(gm + gd)``, which keeps the stamp consistent.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.tech.node import Polarity
from repro.tech.transistor import Mosfet
from repro.spice.netlist import CircuitElement
from repro.units import mV

_FD_STEP = 0.1 * mV  # finite-difference step for gm/gd


class MosfetElement(CircuitElement):
    """MOSFET between ``drain``/``source`` controlled by ``gate``.

    The ``drain``/``source`` labels are only naming: conduction direction
    follows the terminal voltages.  Bulk is implicitly tied to the rail
    (ground for NMOS, the supply for PMOS) with the body effect folded
    into the device card.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 device: Mosfet) -> None:
        super().__init__(name)
        self.drain, self.gate, self.source = drain, gate, source
        self.device = device

    def terminals(self) -> List[str]:
        return [self.drain, self.gate, self.source]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        # The gate is ideal (currentless): it senses but never stamps.
        return [(self.drain, "conductive"), (self.gate, "sense"),
                (self.source, "conductive")]

    def is_nonlinear(self) -> bool:
        return True

    # -- current evaluation ------------------------------------------------

    def current(self, v_d: float, v_g: float, v_s: float) -> float:
        """Channel current flowing drain-terminal -> source-terminal.

        Positive when conventional current flows from the ``drain`` node
        to the ``source`` node (NMOS with vd > vs), negative when the
        device conducts backwards.
        """
        if self.device.polarity is Polarity.NMOS:
            if v_d >= v_s:
                magnitude = self.device.drain_current(v_g - v_s, v_d - v_s)
                return magnitude
            magnitude = self.device.drain_current(v_g - v_d, v_s - v_d)
            return -magnitude
        # PMOS: the effective source is the *higher* terminal and
        # conventional current flows from it to the lower terminal.
        if v_s >= v_d:
            magnitude = self.device.drain_current(v_s - v_g, v_s - v_d)
            return -magnitude  # flows source-terminal -> drain-terminal
        magnitude = self.device.drain_current(v_d - v_g, v_d - v_s)
        return magnitude
