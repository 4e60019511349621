"""A small MNA-based circuit simulator.

This package stands in for the SPICE box of the paper's methodology flow
(Fig. 6).  It supports exactly what memory-array verification needs:

* linear R, C, independent V/I sources (DC, pulse, PWL),
* a nonlinear MOSFET element driven by the :mod:`repro.tech` device
  curves (bidirectional, so pass transistors and charge sharing work),
* a DC operating-point solver (Newton + gmin stepping),
* a fixed-step transient engine (backward Euler or trapezoidal) with
  Newton iteration per step, and a batched twin that marches a stack of
  same-topology Monte-Carlo circuits through one Newton loop,
* waveform measurements (crossings, delays, swings, source energy).

Every Newton iterate is assembled by a compiled
:class:`~repro.spice.stampplan.StampPlan` and solved by dense LAPACK LU
for circuits of tens of nodes (a local block, a sense amplifier) or by
a pattern-compiled sparse LU from
:data:`~repro.spice.stampplan.SPARSE_AUTO_THRESHOLD` unknowns (the
289-unknown hierarchical global bitline).
"""

from repro.spice.netlist import Circuit, GROUND
from repro.spice.elements import (
    Resistor,
    Capacitor,
    VoltageSource,
    CurrentSource,
    Diode,
    Switch,
    dc,
    pulse,
    pwl,
)
from repro.spice.mosfet import MosfetElement
from repro.spice.stdcells import add_inverter, build_ring_oscillator
from repro.spice.op import solve_dc
from repro.spice.stampplan import StampPlan, stamping_order
from repro.spice.export import save_waveforms, waveforms_to_csv
from repro.spice.transient import TransientResult, simulate_transient
from repro.spice.batch import (
    BatchTransientModel,
    batch_transient_outcomes,
    eval_model_batch,
)
from repro.spice.measure import (
    crossing_time,
    delay_between,
    signal_swing,
    source_charge,
    source_energy,
)

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Diode",
    "Switch",
    "MosfetElement",
    "add_inverter",
    "build_ring_oscillator",
    "dc",
    "save_waveforms",
    "waveforms_to_csv",
    "pulse",
    "pwl",
    "solve_dc",
    "StampPlan",
    "stamping_order",
    "TransientResult",
    "simulate_transient",
    "BatchTransientModel",
    "batch_transient_outcomes",
    "eval_model_batch",
    "crossing_time",
    "delay_between",
    "signal_swing",
    "source_charge",
    "source_energy",
]
