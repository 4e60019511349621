"""Hierarchical-bitline Monte-Carlo: the sparse-backend MC workload.

:class:`GlobalBitlineMcModel` is the hierarchy-level companion of
:class:`~repro.variability.localblock_mc.LocalBlockMcModel`: every
sample rebuilds the full ``blocks x cells_per_lbl`` array of
:func:`repro.array.globalbitline.build_globalbitline_read_circuit`
with per-device threshold-voltage draws and a lognormal factor on the
accessed cell's storage capacitor, then measures the differential
GBL-versus-reference signal developed by charge sharing.

At its default size (16 blocks x 16 cells, 289 MNA unknowns) the
model sits well above ``SPARSE_AUTO_THRESHOLD``, so ``backend="auto"``
resolves to the sparse solve path, and ``--batch`` stacks run the
batched sample-axis solver on one shared sparse pattern — this is the
workload the sparse backend exists for.  The simulation window
deliberately stops at the sense-amplifier enable time: charge sharing
through the select device is the mismatch-sensitive quantity, and it
keeps each sample on Newton's benign rung-0 path.

The model instance is picklable (frozen cell + scalars only), so it
composes with ``--jobs`` process pools as well as ``--batch``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.array.globalbitline import (build_globalbitline_read_circuit,
                                       globalbitline_initial_voltages)
from repro.cells.dram1t1c import Dram1t1cCell
from repro.spice.batch import BatchTransientModel
from repro.spice.elements import Capacitor
from repro.spice.mosfet import MosfetElement
from repro.spice.netlist import Circuit
from repro.spice.transient import TransientResult
from repro.units import ns, ps


@dataclasses.dataclass(frozen=True)
class GlobalBitlineSample:
    """One Monte-Carlo draw: per-device VT shifts + cell-cap factor."""

    vth_shifts: Tuple[float, ...]
    cell_cap_factor: float


class GlobalBitlineMcModel(BatchTransientModel):
    """Differential GBL read signal of one perturbed hierarchy.

    ``draw`` consumes the per-sample generator in a fixed order (one
    normal VT shift per MOSFET in circuit order, then one normal for
    the lognormal storage-capacitor factor), so results are
    independent of batching, chunking and worker count by
    construction.
    """

    def __init__(self, cell: Dram1t1cCell, blocks: int = 16,
                 cells_per_lbl: int = 16, stored_value: int = 1,
                 sigma_vth: float = 0.02,
                 sigma_cap: float = 0.05,  # noqa: L103 - dimensionless lognormal sigma
                 t_stop: float = 0.50 * ns,
                 dt: float = 2.0 * ps) -> None:
        self.cell = cell
        self.blocks = blocks
        self.cells_per_lbl = cells_per_lbl
        self.stored_value = stored_value
        self.sigma_vth = sigma_vth
        self.sigma_cap = sigma_cap
        self.t_stop = t_stop
        self.dt = dt
        self._template_cache: Optional[Circuit] = None
        self._n_mosfets = sum(
            1 for el in self._template().elements
            if isinstance(el, MosfetElement))
        self._accessed_cap = "c_cell0_0"  # selected_block=0, first cell

    def _template(self) -> Circuit:
        # One template per model instance: build() re-adds the same
        # source/switch element objects so repeated samples share the
        # waveform closures (and the pickling caveat below applies).
        if self._template_cache is None:
            self._template_cache = build_globalbitline_read_circuit(
                self.cell, blocks=self.blocks,
                cells_per_lbl=self.cells_per_lbl,
                stored_value=self.stored_value)
        return self._template_cache

    def __getstate__(self) -> dict:
        # Waveform closures make circuits unpicklable; drop the cache
        # so worker processes rebuild their own template.
        state = dict(self.__dict__)
        state["_template_cache"] = None
        return state

    def draw(self, rng: np.random.Generator) -> GlobalBitlineSample:
        shifts = tuple(
            float(v) for v in rng.normal(0.0, self.sigma_vth,
                                         size=self._n_mosfets))
        cap_factor = math.exp(float(rng.normal(0.0, self.sigma_cap)))
        return GlobalBitlineSample(vth_shifts=shifts,
                                   cell_cap_factor=cap_factor)

    def build(self, params: GlobalBitlineSample) -> Circuit:
        template = self._template()
        circuit = Circuit(template.name)
        shifts = iter(params.vth_shifts)
        for element in template.elements:
            if isinstance(element, MosfetElement):
                device = element.device.with_vth_shift(next(shifts))
                element = MosfetElement(element.name, element.drain,
                                        element.gate, element.source,
                                        device)
            elif (isinstance(element, Capacitor)
                  and element.name == self._accessed_cap):
                element = Capacitor(
                    element.name, element.node_a, element.node_b,
                    element.capacitance * params.cell_cap_factor,
                    initial_voltage=element.initial_voltage)
            circuit.add(element)
        return circuit

    def initial_voltages(self, params: GlobalBitlineSample
                         ) -> Optional[Dict[str, float]]:
        return globalbitline_initial_voltages(self.cell)

    def measure(self, result: TransientResult,
                params: GlobalBitlineSample) -> float:
        gbl = result.voltage("gbl")
        ref = result.voltage("gbl_ref")
        return float(gbl[-1] - ref[-1])
