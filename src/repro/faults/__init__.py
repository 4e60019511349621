"""Fault injection and resilience: seeded chaos testing for the models.

The subsystem splits cleanly in three:

* :mod:`repro.faults.plan` — what is broken (seeded, replayable
  :class:`FaultPlan` populations);
* :mod:`repro.faults.repair` — what the hardware absorbs (ECC +
  spare-row repair, yielding a degraded-but-functional
  :class:`DegradedMacroReport`);
* :mod:`repro.faults.injector` — how the survivors perturb the
  refresh interference simulator;
* :mod:`repro.faults.chaos` — process-level chaos (worker kill/hang/
  slow, torn checkpoints, disk-full sinks) proving the supervised
  executor loses nothing and drifts nowhere.
"""

from repro.faults.chaos import (
    CHAOS_SCENARIOS,
    ChaosPlan,
    ChaosReport,
    corrupt_checkpoint,
    fill_event_sink,
    generate_chaos_plan,
    run_chaos_matrix,
    run_chaos_scenario,
)
from repro.faults.injector import FaultyRefreshPolicy
from repro.faults.plan import (
    FaultPlan,
    RefreshFault,
    SenseAmpOutlier,
    StuckBit,
    WeakCell,
    generate_fault_plan,
)
from repro.faults.repair import (
    DegradedMacroReport,
    RepairModel,
    assess_plan,
    plan_for_organization,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosPlan",
    "ChaosReport",
    "DegradedMacroReport",
    "FaultPlan",
    "FaultyRefreshPolicy",
    "RefreshFault",
    "RepairModel",
    "SenseAmpOutlier",
    "StuckBit",
    "WeakCell",
    "assess_plan",
    "corrupt_checkpoint",
    "fill_event_sink",
    "generate_chaos_plan",
    "generate_fault_plan",
    "plan_for_organization",
    "run_chaos_matrix",
    "run_chaos_scenario",
]
