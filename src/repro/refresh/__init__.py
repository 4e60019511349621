"""Cycle-exact refresh/access interference simulation (paper Fig. 5).

The paper's localized refresh turns refresh from a whole-memory stall
into a per-local-block affair that runs concurrently with accesses to
other blocks.  This package quantifies the difference:

* :mod:`repro.refresh.traces` — access-stream generators,
* :mod:`repro.refresh.controller` — monoblock vs localized refresh
  scheduling policies,
* :mod:`repro.refresh.simulator` — the access-driven, cycle-exact
  simulator that produces the busy-cycle percentages of Fig. 5.
"""

from repro.refresh.traces import (
    uniform_random_trace,
    bursty_trace,
    sequential_trace,
    hot_block_trace,
)
from repro.refresh.controller import (
    RefreshPolicy,
    MonoblockRefresh,
    LocalizedRefresh,
    RefreshOperation,
)
from repro.refresh.simulator import (
    RefreshSimulator,
    SimulationStats,
    analytic_busy_fraction,
)
from repro.refresh.adaptive import (
    TemperatureAdaptiveRefresh,
    RefreshBin,
    BinnedRefreshPlan,
    plan_binned_refresh,
)

__all__ = [
    "uniform_random_trace",
    "bursty_trace",
    "sequential_trace",
    "hot_block_trace",
    "RefreshPolicy",
    "MonoblockRefresh",
    "LocalizedRefresh",
    "RefreshOperation",
    "RefreshSimulator",
    "SimulationStats",
    "analytic_busy_fraction",
    "TemperatureAdaptiveRefresh",
    "RefreshBin",
    "BinnedRefreshPlan",
    "plan_binned_refresh",
]
