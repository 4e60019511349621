"""repro — reproduction of "A novel DRAM architecture as a low leakage
alternative for SRAM caches in a 3D interconnect context" (DATE 2009).

Public API highlights:

>>> from repro import FastDramDesign, SramBaselineDesign
>>> macro = FastDramDesign().build()
>>> macro.access_time() < 2e-9
True

Subpackages
-----------
``repro.core``
    The paper's contribution: the fast-DRAM macro, the methodology flow,
    the DRAM-vs-SRAM comparison, design-space sweeps.
``repro.array``
    The hierarchical array model (organization, timing, energy, area,
    static power, circuit-level local block).
``repro.cells`` / ``repro.tech`` / ``repro.spice`` / ``repro.variability``
    Substrates: cells, 90 nm device/wire models, the MNA circuit
    simulator, Monte-Carlo machinery.
``repro.refresh``
    Cycle-exact refresh/access interference simulation (paper Fig. 5).
``repro.sramref``
    The ESSCIRC'08 SRAM baseline.
``repro.stack3d`` / ``repro.cache``
    The 3D-interconnect context and the cache-level application.
``repro.obs``
    Instrumentation: metrics registry, span tracing, run reports.
"""

import logging

# Library convention: module loggers under the "repro" namespace emit
# nothing unless the application configures handlers (the CLI's
# -v/--verbose does).
logging.getLogger("repro").addHandler(logging.NullHandler())

from repro.core.fastdram import FastDramDesign, FastDramMacro
from repro.core.compare import SramDramComparison
from repro.core.methodology import MethodologyFlow
from repro.sramref.model import SramBaselineDesign
from repro.array.macro import MacroDesign

__version__ = "1.0.0"

__all__ = [
    "FastDramDesign",
    "FastDramMacro",
    "SramDramComparison",
    "MethodologyFlow",
    "SramBaselineDesign",
    "MacroDesign",
    "__version__",
]
