"""Top-level API: the paper's fast low-leakage DRAM macro.

* :class:`~repro.core.fastdram.FastDramDesign` — build the proposed
  macro (scratch-pad or DRAM-technology variant) and quote every
  headline figure.
* :class:`~repro.core.methodology.MethodologyFlow` — the three-step
  evaluation flow of paper Fig. 6.
* :class:`~repro.core.compare.SramDramComparison` — every head-to-head
  figure of the evaluation (Fig. 7a-d, Fig. 8, Fig. 9, Table I).
* :mod:`~repro.core.designspace` — parameter sweeps and the ablations
  of the architectural choices.
"""

from repro.core.fastdram import FastDramDesign, FastDramMacro
from repro.core.methodology import MethodologyFlow, MethodologyReport
from repro.core.compare import SramDramComparison, ComparisonRow
from repro.core.designspace import (
    sweep_cells_per_lbl,
    sweep_retention,
    sweep_sizes,
    ablate_architecture,
    AblationResult,
)
from repro.core.report import format_table
from repro.core.figures import ascii_chart
from repro.core.pvt import PvtAnalysis, PvtPoint
from repro.core.sensitivity import Sensitivity, SensitivityAnalysis
from repro.core.optimizer import (
    DesignCandidate,
    DesignOptimizer,
    OptimisationResult,
)
from repro.core.voltage import (
    VoltagePoint,
    build_at_supply,
    scaled_supply_design,
    voltage_sweep,
)

__all__ = [
    "FastDramDesign",
    "FastDramMacro",
    "MethodologyFlow",
    "MethodologyReport",
    "SramDramComparison",
    "ComparisonRow",
    "sweep_cells_per_lbl",
    "sweep_retention",
    "sweep_sizes",
    "ablate_architecture",
    "AblationResult",
    "format_table",
    "ascii_chart",
    "PvtAnalysis",
    "PvtPoint",
    "Sensitivity",
    "SensitivityAnalysis",
    "DesignCandidate",
    "DesignOptimizer",
    "OptimisationResult",
    "VoltagePoint",
    "build_at_supply",
    "scaled_supply_design",
    "voltage_sweep",
]
