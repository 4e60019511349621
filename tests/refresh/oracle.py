"""Per-cycle reference model of the refresh-interference simulator.

:class:`~repro.refresh.simulator.RefreshSimulator` steps from access to
access.  This module keeps the straightforward loop it replaced — one
iteration per clock cycle, refreshes taken one at a time from
``refresh_starting_at`` — as the test oracle: every output of the
access-driven walk (``SimulationStats`` field for field, the saturation
error, the fault events and the busy-fraction telemetry) must equal
what this loop produces.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.refresh.simulator import _BUSY_SAMPLE_WINDOW, SimulationStats
from repro.refresh.traces import IDLE


def per_cycle_run(policy, trace: np.ndarray) -> SimulationStats:
    """Simulate ``trace`` against ``policy`` one cycle at a time."""
    n_cycles = len(trace)
    pending = [int(b) for b in trace if b != IDLE]
    arrival = [i for i, b in enumerate(trace) if b != IDLE]
    if any(not 0 <= b < policy.n_blocks for b in pending):
        raise SimulationError("trace targets a block outside the matrix")

    fault_kind = getattr(policy, "fault_kind", None)
    refresh_index = 0
    active = None
    next_op = None
    stall_cycles = 0
    completed = 0
    dropped = 0
    late = 0
    queue_pos = 0
    cycle = 0
    if obs.is_enabled():
        busy_series = obs.timeseries().series("refresh.busy_fraction")
    else:
        busy_series = None
    window_stalls = 0
    next_sample = _BUSY_SAMPLE_WINDOW
    horizon = n_cycles + 10 * policy.refresh_duration_cycles * (
        1 + len(pending))
    while queue_pos < len(pending) and cycle < horizon:
        if busy_series is not None and cycle >= next_sample:
            busy_series.sample(
                cycle, (stall_cycles - window_stalls) / _BUSY_SAMPLE_WINDOW)
            window_stalls = stall_cycles
            next_sample += _BUSY_SAMPLE_WINDOW
        # The schedule is a pure function of the index: fetch each
        # refresh once instead of once per cycle.
        if next_op is None:
            next_op = policy.refresh_starting_at(refresh_index)
        if active is not None and cycle >= active.end_cycle:
            active = None
        if active is None and cycle >= next_op.start_cycle:
            active = next_op
            if fault_kind is not None:
                kind = fault_kind(refresh_index)
                if kind == "drop":
                    dropped += 1
                    obs.event("refresh.dropped", index=refresh_index,
                              cycle=cycle)
                elif kind == "late":
                    late += 1
                    obs.event("refresh.late_start", index=refresh_index,
                              cycle=cycle)
            refresh_index += 1
            next_op = None
        if arrival[queue_pos] > cycle:
            cycle += 1
            continue
        block = pending[queue_pos]
        if active is not None and active.blocks_access(cycle, block):
            stall_cycles += 1
        else:
            completed += 1
            queue_pos += 1
        cycle += 1
    if queue_pos < len(pending):
        raise SimulationError("memory saturated")
    return SimulationStats(
        total_cycles=max(n_cycles, cycle),
        accesses=len(pending),
        completed=completed,
        stall_cycles=stall_cycles,
        refreshes_issued=refresh_index,
        dropped_refreshes=dropped,
        late_refreshes=late,
        data_loss_events=dropped,
    )
