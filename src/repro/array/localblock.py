"""Transistor-level local-block simulation (paper Fig. 3 and Fig. 4).

This module builds a SPICE netlist of one local-block column and
reproduces the paper's waveforms:

* charge sharing of the cell onto the short LBL,
* a dummy-cell reference bitline (half-capacitance dummy: the classic
  DRAM mid-signal reference),
* a cross-coupled latch local SA that regenerates the LBL rail-to-rail
  — thereby *restoring the cell in place* (write-after-read at local
  level) while…
* …a read buffer develops the low-swing GBL step (0.4 V -> 0.3 V)
  towards the ``GBL gnd`` rail.  During refresh the buffer stays
  disabled and the GBL-side circuitry never moves — the paper's
  low-energy localized refresh.

The analytic models in :mod:`repro.array.timing` / ``energy`` are the
workhorses; this simulation is the validation step of the methodology
flow (paper Fig. 6's "SPICE" box).
"""

from __future__ import annotations

import dataclasses

from repro.errors import SimulationError
from repro.cells.dram1t1c import Dram1t1cCell
from repro.spice import (
    Capacitor,
    Circuit,
    MosfetElement,
    Switch,
    VoltageSource,
    dc,
    pulse,
    simulate_transient,
    source_energy,
    TransientResult,
)
from repro.tech.node import Polarity, VtFlavor
from repro.tech.transistor import Mosfet
from repro.tech.wire import LOCAL_LAYER, Wire
from repro.units import fF, kohm, ns, ps, um

# Simulation schedule (seconds).
_T_PRECHARGE_OFF = 0.10 * ns
_T_WL_RISE = 0.20 * ns
_T_SA_ENABLE = 0.70 * ns
_T_BUFFER_ENABLE = 0.90 * ns
_T_STOP = 2.5 * ns
_DT = 1.0 * ps


@dataclasses.dataclass(frozen=True)
class LocalBlockWaveforms:
    """Measured quantities of one local-block read/refresh simulation.

    The node voltages (signal, levels, ``gbl_swing``) are converged
    at the 1 ps backward-Euler grid (see
    ``tests/spice/test_timestep_convergence.py``); the supply energies
    are not.  On DRAM-tech, 32 cells, stored '0', ``wordline_energy``
    reads 30.68 fJ at 1 ps against 29.79 fJ at 0.1 ps (and 29.69 fJ
    under trapezoidal integration at 1 ps), so an energy result needs
    a grid of 0.1 ps or finer.
    """

    result: TransientResult
    stored_value: int
    charge_sharing_signal: float  # LBL step right before SA enable, V
    lbl_final: float  # LBL level after regeneration, V
    cell_final: float  # restored cell level, V
    gbl_swing: float  # GBL excursion, V (0 during refresh)
    wordline_energy: float  # J drawn from the WL driver
    sense_energy: float  # J drawn from the SA rail

    @property
    def restored_correctly(self) -> bool:
        """Did the write-after-read loop restore the stored value?"""
        if self.stored_value == 0:
            return self.cell_final < 0.15
        return self.cell_final > 0.6


def build_localblock_read_circuit(cell: Dram1t1cCell,
                                  cells_per_lbl: int = 16,
                                  stored_value: int = 0,
                                  gbl_cap: float = 40 * fF,
                                  refresh_only: bool = False) -> Circuit:
    """Netlist of one local-block column (paper Fig. 4).

    ``gbl_cap`` is the global-bitline load seen by the read buffer, in
    farads.  ``refresh_only`` disables the read buffer: the GBL side
    floats, as in the paper's localized refresh ("the GBL gnd node is
    left floating during this operation").
    """
    if stored_value not in (0, 1):
        raise SimulationError("stored_value must be 0 or 1")
    if cells_per_lbl < 2:
        raise SimulationError("need at least 2 cells per LBL")
    node = cell.node
    circuit = Circuit(f"localblock-read-{stored_value}")

    precharge = cell.bitline_precharge
    v_cell0 = cell.stored_high if stored_value else 0.0

    # --- supplies and control -------------------------------------------------
    circuit.add(VoltageSource("vpre_rail", "pre_rail", "0", dc(precharge)))
    circuit.add(VoltageSource("vsa_rail", "sa_rail", "0", dc(precharge)))
    circuit.add(VoltageSource("vgblgnd", "gbl_gnd", "0", dc(0.3)))
    circuit.add(VoltageSource(
        "vwl", "wl", "0",
        pulse(0.0, cell.wordline_voltage, delay=_T_WL_RISE,
              rise=30 * ps, width=_T_STOP)))
    circuit.add(VoltageSource(
        "vprech_n", "prech_ctl", "0",
        pulse(1.2, 0.0, delay=_T_PRECHARGE_OFF, rise=20 * ps, width=_T_STOP)))
    circuit.add(VoltageSource(
        "vsa_en", "sa_en", "0",
        pulse(0.0, 1.2, delay=_T_SA_ENABLE, rise=20 * ps, width=_T_STOP)))
    if not refresh_only:
        circuit.add(VoltageSource(
            "vrb_en", "rb_en", "0",
            pulse(0.0, 1.2, delay=_T_BUFFER_ENABLE, rise=20 * ps,
                  width=_T_STOP)))

    # --- storage cell and bitline ------------------------------------------------
    # The MOSFET element has an ideal (currentless) gate, so the word
    # line's real load — the access gates of the word plus wire — is an
    # explicit capacitor; the WL driver energy is measured through it.
    lwl_load = (32 * cell.access.gate_capacitance()
                + Wire(LOCAL_LAYER, 32 * 0.6 * um).capacitance)
    circuit.add(Capacitor("c_lwl", "wl", "0", lwl_load))
    circuit.add(MosfetElement("m_access", "lbl", "wl", "cell", cell.access))
    circuit.add(Capacitor("c_cell", "cell", "0", cell.capacitor.capacitance,
                          initial_voltage=v_cell0))
    lbl_wire = Wire(LOCAL_LAYER, cells_per_lbl * 0.6 * um)
    c_lbl = (cells_per_lbl * cell.access.junction_capacitance()
             + lbl_wire.capacitance + 0.3 * fF)
    circuit.add(Capacitor("c_lbl", "lbl", "0", c_lbl,
                          initial_voltage=precharge))

    # --- reference bitline with half-capacitance dummy cell -----------------------
    circuit.add(Capacitor("c_ref", "ref", "0", c_lbl,
                          initial_voltage=precharge))
    dummy = Mosfet(node, Polarity.NMOS, VtFlavor.HVT,
                   width=cell.access.width,
                   length_factor=cell.access.length_factor)
    circuit.add(MosfetElement("m_dummy", "ref", "wl", "dummy_cell", dummy))
    circuit.add(Capacitor("c_dummy", "dummy_cell", "0",
                          cell.capacitor.capacitance / 2.0,
                          initial_voltage=0.0))

    # --- precharge devices ------------------------------------------------------------
    circuit.add(Switch("sw_pre_lbl", "lbl", "pre_rail", "prech_ctl", "0",
                       threshold=0.6, r_on=2 * kohm))
    circuit.add(Switch("sw_pre_ref", "ref", "pre_rail", "prech_ctl", "0",
                       threshold=0.6, r_on=2 * kohm))

    # --- cross-coupled latch local SA ----------------------------------------------------
    sa_n = Mosfet(node, Polarity.NMOS, VtFlavor.SVT,
                  width=node.width_units(4.0))
    sa_p = Mosfet(node, Polarity.PMOS, VtFlavor.SVT,
                  width=node.width_units(6.0))
    circuit.add(MosfetElement("m_sa_n1", "lbl", "ref", "sa_tail", sa_n))
    circuit.add(MosfetElement("m_sa_n2", "ref", "lbl", "sa_tail", sa_n))
    circuit.add(MosfetElement("m_sa_p1", "lbl", "ref", "sa_top", sa_p))
    circuit.add(MosfetElement("m_sa_p2", "ref", "lbl", "sa_top", sa_p))
    circuit.add(Switch("sw_sa_foot", "sa_tail", "0", "sa_en", "0",
                       threshold=0.6, r_on=500.0))
    circuit.add(Switch("sw_sa_head", "sa_top", "sa_rail", "sa_en", "0",
                       threshold=0.6, r_on=500.0))

    # --- read buffer driving the low-swing GBL --------------------------------------------
    circuit.add(Capacitor("c_gbl", "gbl", "0", gbl_cap, initial_voltage=0.4))
    if not refresh_only:
        rb_in = Mosfet(node, Polarity.NMOS, VtFlavor.HVT,
                       width=node.width_units(6.0))
        rb_out = Mosfet(node, Polarity.NMOS, VtFlavor.LVT,
                        width=node.width_units(6.0))
        # Stack: GBL -> (gate: ref) -> mid -> (gate: rb_en) -> GBL gnd.
        circuit.add(MosfetElement("m_rb_in", "gbl", "ref", "rb_mid", rb_in))
        circuit.add(MosfetElement("m_rb_en", "rb_mid", "rb_en", "gbl_gnd",
                                  rb_out))
    return circuit


def simulate_localblock_read(cell: Dram1t1cCell,
                             cells_per_lbl: int = 16,
                             stored_value: int = 0,
                             gbl_cap: float = 40 * fF,
                             refresh_only: bool = False
                             ) -> LocalBlockWaveforms:
    """Run the local-block read (or refresh) and measure the paper's
    Fig. 3 quantities.  ``gbl_cap`` is the global-bitline load in
    farads."""
    circuit = build_localblock_read_circuit(
        cell, cells_per_lbl=cells_per_lbl, stored_value=stored_value,
        gbl_cap=gbl_cap, refresh_only=refresh_only)
    initial = {
        "pre_rail": cell.bitline_precharge,
        "sa_rail": cell.bitline_precharge,
        "gbl_gnd": 0.3,
        "prech_ctl": 1.2,
    }
    result = simulate_transient(circuit, t_stop=_T_STOP, dt=_DT,
                                initial_voltages=initial)
    lbl = result.voltage("lbl")
    ref = result.voltage("ref")
    # Signal right before SA enable.
    idx = int(_T_SA_ENABLE / _DT) - 2
    signal = float(abs(lbl[idx] - ref[idx]))
    gbl = result.voltage("gbl")
    gbl_swing = float(abs(gbl[0] - gbl.min()))
    return LocalBlockWaveforms(
        result=result,
        stored_value=stored_value,
        charge_sharing_signal=signal,
        lbl_final=float(lbl[-1]),
        cell_final=float(result.final_voltage("cell")),
        gbl_swing=gbl_swing,
        wordline_energy=source_energy(result, "vwl"),
        sense_energy=source_energy(result, "vsa_rail"),
    )
