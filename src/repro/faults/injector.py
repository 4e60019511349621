"""Fault injection adapter: replay a :class:`FaultPlan` against the
refresh interference simulator.

:class:`FaultyRefreshPolicy` wraps any refresh schedule and corrupts the
operations the plan marks: a *dropped* refresh (dead wordline driver)
becomes a zero-duration no-op — the schedule slot passes but the row is
never restored, a data-loss event every period — and a *late* refresh
(slow charge pump) starts ``delay_cycles`` after its slot, widening the
window it collides with accesses.  The interference simulator detects
the wrapper by its ``faults`` method and reports
dropped/late/data-loss counts in its stats.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.refresh.controller import RefreshPolicy


@dataclasses.dataclass(frozen=True)
class FaultyRefreshPolicy:
    """A refresh schedule with the plan's refresh faults injected.

    Duck-types as a :class:`~repro.refresh.controller.RefreshPolicy`:
    the simulator only needs the schedule accessors, which delegate to
    ``base`` except where a fault rewrites the operation.
    """

    base: RefreshPolicy
    plan: FaultPlan

    def __post_init__(self) -> None:
        if self.plan.total_rows != self.base.total_rows:
            raise ConfigurationError(
                f"fault plan covers {self.plan.total_rows} rows but the "
                f"refresh policy schedules {self.base.total_rows}")

    # -- delegated schedule geometry ---------------------------------------

    @property
    def n_blocks(self) -> int:
        return self.base.n_blocks

    @property
    def rows_per_block(self) -> int:
        return self.base.rows_per_block

    @property
    def refresh_period_cycles(self) -> int:
        return self.base.refresh_period_cycles

    @property
    def refresh_duration_cycles(self) -> int:
        return self.base.refresh_duration_cycles

    @property
    def total_rows(self) -> int:
        return self.base.total_rows

    @property
    def interval_cycles(self) -> float:
        return self.base.interval_cycles

    def utilisation(self) -> float:
        return self.base.utilisation()

    # -- fault injection ------------------------------------------------------

    @functools.cached_property
    def _row_faults(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row drop mask, late mask and delay, built once."""
        dropped = np.zeros(self.total_rows, dtype=bool)
        dropped[sorted(self.plan.dropped_rows())] = True
        late = np.zeros(self.total_rows, dtype=bool)
        delay = np.zeros(self.total_rows, dtype=np.int64)
        for row, cycles in self.plan.late_rows().items():
            late[row], delay[row] = True, cycles
        late[dropped], delay[dropped] = False, 0  # a drop wins
        return dropped, late, delay

    def faults(self, first: int, count: int) -> Tuple[np.ndarray, ...]:
        """``(dropped, late, delay)`` of refreshes ``first`` onwards."""
        rows = np.arange(first, first + count) % self.total_rows
        return tuple(per_row[rows] for per_row in self._row_faults)

    def fault_kind(self, index: int) -> "str | None":
        """The fault affecting the ``index``-th scheduled refresh."""
        drop, late, _ = self.faults(index, 1)
        return "drop" if drop[0] else "late" if late[0] else None

    def schedule(self, first: int,
                 count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The base schedule with the faults applied: a dropped slot
        passes with zero duration (it blocks no access, and the row is
        never restored); a late one starts its delay later."""
        start, duration, block = self.base.schedule(first, count)
        drop, _, delay = self.faults(first, count)
        duration[drop] = 0
        return start + delay, duration, block

    refresh_starting_at = RefreshPolicy.refresh_starting_at

