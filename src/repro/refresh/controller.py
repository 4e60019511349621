"""Refresh scheduling policies.

All rows must be refreshed once per refresh period.  The scheduler
spreads the row refreshes evenly (distributed refresh — the standard
scheme).  The two policies differ in *what an ongoing refresh blocks*:

* :class:`MonoblockRefresh` — the conventional organization: a refresh
  occupies the whole matrix; every concurrent access stalls.
* :class:`LocalizedRefresh` — the paper's scheme (Fig. 4): a refresh is
  internal to one local block; only accesses to that block stall.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class RefreshOperation:
    """One scheduled row refresh."""

    start_cycle: int
    duration: int  # cycles
    block: int | None  # None = whole memory blocked

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration

    def blocks_access(self, cycle: int, target_block: int) -> bool:
        """Does this refresh stall an access to ``target_block`` now?"""
        if not self.start_cycle <= cycle < self.end_cycle:
            return False
        return self.block is None or self.block == target_block


@dataclasses.dataclass(frozen=True)
class RefreshPolicy:
    """Base distributed-refresh schedule.

    Parameters
    ----------
    n_blocks / rows_per_block:
        Matrix organization (128 blocks x 32 rows for the 128 kb DRAM).
    refresh_period_cycles:
        Every row must be refreshed once per this many cycles
        (= retention / guard band x clock frequency).
    refresh_duration_cycles:
        Cycles one row refresh occupies its victim (2 at 500 MHz: the
        local read + write-back of paper Fig. 4).
    """

    n_blocks: int
    rows_per_block: int
    refresh_period_cycles: int
    refresh_duration_cycles: int = 2

    def __post_init__(self) -> None:
        if self.n_blocks < 1 or self.rows_per_block < 1:
            raise ConfigurationError("organization sizes must be >= 1")
        if self.refresh_period_cycles < 1:
            raise ConfigurationError("refresh period must be >= 1 cycle")
        if self.refresh_duration_cycles < 1:
            raise ConfigurationError("refresh duration must be >= 1 cycle")

    @property
    def total_rows(self) -> int:
        return self.n_blocks * self.rows_per_block

    @property
    def interval_cycles(self) -> float:
        """Cycles between consecutive row refreshes (may be < 1:
        refreshes then overlap back-to-back and the memory saturates)."""
        return self.refresh_period_cycles / self.total_rows

    def schedule(self, first: int,
                 count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Refreshes ``first .. first + count - 1`` as int64 arrays.

        Returns ``(start, duration, block)``; block -1 blocks the whole
        memory.  Starts are ``rint(i * interval)``, which rounds half to
        even exactly like ``round()``.
        """
        index = np.arange(first, first + count, dtype=np.int64)
        start = np.rint(index * self.interval_cycles).astype(np.int64)
        duration = np.full(count, self.refresh_duration_cycles, np.int64)
        return start, duration, self._scope(index % self.total_rows)

    def refresh_starting_at(self, index: int) -> RefreshOperation:
        """The ``index``-th row refresh of the schedule (one row of
        :meth:`schedule`)."""
        start, duration, block = (int(v[0]) for v in self.schedule(index, 1))
        return RefreshOperation(start_cycle=start, duration=duration,
                                block=None if block < 0 else block)

    def _scope(self, rows: np.ndarray) -> np.ndarray:
        """Blocked local block per row (-1 = whole memory)."""
        raise NotImplementedError

    def utilisation(self) -> float:
        """Fraction of time the *victim scope* spends refreshing."""
        return min(1.0, self.refresh_duration_cycles / self.interval_cycles)


@dataclasses.dataclass(frozen=True)
class MonoblockRefresh(RefreshPolicy):
    """Refresh blocks the entire memory (conventional DRAM)."""

    def _scope(self, rows: np.ndarray) -> np.ndarray:
        return np.full(len(rows), -1, np.int64)


@dataclasses.dataclass(frozen=True)
class LocalizedRefresh(RefreshPolicy):
    """Refresh blocks only the local block holding the row (the paper).

    Rows are walked block-major (all rows of block 0, then block 1, ...)
    so consecutive refreshes mostly stay in one block — the pattern that
    maximises the window other blocks stay accessible.
    """

    def _scope(self, rows: np.ndarray) -> np.ndarray:
        return rows // self.rows_per_block
