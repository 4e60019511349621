"""Hierarchical memory-array model — the paper's architecture.

The model follows paper Fig. 1 exactly:

* the matrix is divided into *local blocks* of ``cells_per_lbl`` rows by
  ``word_bits`` columns; each local word line (LWL) opens exactly one
  word;
* every local bitline (LBL) carries only ``cells_per_lbl`` cells and is
  sensed by a *local sense amplifier* that restores the cell in place
  (write-after-read at local level, paper Fig. 4) and drives a
  low-swing *global bitline* (GBL);
* global word lines (GWL) select the block, a GBL mux and global SA
  recover the data.

The same skeleton is instantiated with an SRAM 6T cell (the baseline
[10]) or the paper's 1T1C cells, which is what makes every figure a
controlled comparison.
"""

from repro.array.organization import ArrayOrganization
from repro.array.floorplan import Floorplan, FloorplanBreakdown
from repro.array.senseamp import SenseAmplifier
from repro.array.decoder import DecoderModel
from repro.array.timing import AccessTiming, TimingModel
from repro.array.energy import AccessEnergy, EnergyModel
from repro.array.static_power import StaticPowerModel, StaticPowerReport
from repro.array.banking import BankedMemory, compare_banking_options
from repro.array.margins import MarginPoint, ReadMarginAnalysis
from repro.array.macro import MacroDesign
from repro.array.localblock import (
    build_localblock_read_circuit,
    simulate_localblock_read,
    LocalBlockWaveforms,
)
from repro.array.globalbitline import (
    build_globalbitline_read_circuit,
    simulate_globalbitline_read,
    GlobalBitlineWaveforms,
)

__all__ = [
    "ArrayOrganization",
    "Floorplan",
    "FloorplanBreakdown",
    "SenseAmplifier",
    "DecoderModel",
    "AccessTiming",
    "TimingModel",
    "AccessEnergy",
    "EnergyModel",
    "StaticPowerModel",
    "StaticPowerReport",
    "BankedMemory",
    "MarginPoint",
    "ReadMarginAnalysis",
    "compare_banking_options",
    "MacroDesign",
    "build_localblock_read_circuit",
    "simulate_localblock_read",
    "LocalBlockWaveforms",
    "build_globalbitline_read_circuit",
    "simulate_globalbitline_read",
    "GlobalBitlineWaveforms",
]
