"""Seeded fault plans: the chaos-testing input of the resilience layer.

A :class:`FaultPlan` is a deterministic, seeded population of hardware
faults over one memory matrix:

* **weak-retention cells** — rows hosting a cell from the low tail of
  the :class:`~repro.variability.retention.RetentionModel` distribution
  (the paper's 6-sigma worst case made concrete, row by row);
* **stuck bits** — manufacturing defects that pin one bit of a word;
* **sense-amp offset outliers** — local blocks whose SA offset landed
  far out on the Pelgrom distribution, shrinking the read margin;
* **refresh faults** — rows whose scheduled refresh is dropped (a dead
  wordline driver) or chronically late (a slow charge pump).

The plan is pure data: generation (:func:`generate_fault_plan`) is
separated from injection (:mod:`repro.faults.injector`) and repair
(:mod:`repro.faults.repair`), so one plan can be replayed against the
refresh simulator and the macro margin checks — and archived next to
the run report that used it.

Construction validates only types and signs; *physical consistency*
(weak-cell fraction above 1, coordinates outside the matrix, duplicate
faults) is the province of ``repro check`` rule M212, so a questionable
plan can be linted without crashing the loader.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import config_fingerprint
from repro.units import us

#: Refresh-fault kinds a plan may contain.
REFRESH_FAULT_KINDS = ("drop", "late")


@dataclasses.dataclass(frozen=True)
class WeakCell:
    """One row hosting a retention-tail cell (times in seconds)."""

    block: int
    row: int
    retention_time: float


@dataclasses.dataclass(frozen=True)
class StuckBit:
    """One bit of one word pinned to a constant value."""

    block: int
    row: int
    bit: int
    stuck_value: int = 0


@dataclasses.dataclass(frozen=True)
class SenseAmpOutlier:
    """A local block whose SA offset is an outlier.

    ``offset_multiplier`` scales the required input differential of the
    block's sense amplifier (>= 1 in any physical plan).
    """

    block: int
    offset_multiplier: float


@dataclasses.dataclass(frozen=True)
class RefreshFault:
    """A row whose scheduled refresh misbehaves every period.

    ``kind="drop"``: the refresh never happens (dead wordline driver).
    ``kind="late"``: the refresh starts ``delay_cycles`` late.
    """

    row: int  # global row index (block-major, as the scheduler walks)
    kind: str
    delay_cycles: int = 0

    def __post_init__(self) -> None:
        if self.kind not in REFRESH_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown refresh fault kind {self.kind!r}; "
                f"use one of {REFRESH_FAULT_KINDS}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded population of faults over one memory matrix."""

    seed: int
    n_blocks: int
    rows_per_block: int
    word_bits: int = 32
    weak_cells: Tuple[WeakCell, ...] = ()
    stuck_bits: Tuple[StuckBit, ...] = ()
    sa_outliers: Tuple[SenseAmpOutlier, ...] = ()
    refresh_faults: Tuple[RefreshFault, ...] = ()

    def __post_init__(self) -> None:
        if self.n_blocks < 1 or self.rows_per_block < 1:
            raise ConfigurationError("fault plan needs a non-empty matrix")
        if self.word_bits < 1:
            raise ConfigurationError("word_bits must be >= 1")

    # -- derived views ------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return self.n_blocks * self.rows_per_block

    @property
    def weak_cell_fraction(self) -> float:
        return len(self.weak_cells) / self.total_rows

    def global_row(self, block: int, row: int) -> int:
        """Block-major global row index (the refresh walk order)."""
        return block * self.rows_per_block + row

    def weakest_retention(self) -> Optional[float]:
        """Shortest weak-cell retention, or ``None`` without weak cells."""
        if not self.weak_cells:
            return None
        return min(cell.retention_time for cell in self.weak_cells)

    def weak_rows(self) -> FrozenSet[int]:
        """Global row indices hosting a weak cell."""
        return frozenset(self.global_row(c.block, c.row)
                         for c in self.weak_cells)

    def dropped_rows(self) -> FrozenSet[int]:
        return frozenset(f.row for f in self.refresh_faults
                         if f.kind == "drop")

    def late_rows(self) -> Dict[int, int]:
        """Global row -> delay cycles for chronically late refreshes."""
        return {f.row: f.delay_cycles for f in self.refresh_faults
                if f.kind == "late"}

    def worst_sa_multiplier(self) -> float:
        """Largest SA offset multiplier in the plan (1.0 if none)."""
        if not self.sa_outliers:
            return 1.0
        return max(o.offset_multiplier for o in self.sa_outliers)

    def fingerprint(self) -> str:
        """Stable short hash, for checkpoint keys and run reports."""
        return config_fingerprint(dataclasses.asdict(self))

    def describe(self) -> str:
        weakest = self.weakest_retention()
        lines = [
            f"fault plan (seed {self.seed}) over "
            f"{self.n_blocks} x {self.rows_per_block} rows:",
            f"  weak cells      : {len(self.weak_cells)}"
            + (f" (weakest {weakest:.3g} s)" if weakest else ""),
            f"  stuck bits      : {len(self.stuck_bits)}",
            f"  SA outliers     : {len(self.sa_outliers)}"
            + (f" (worst x{self.worst_sa_multiplier():.2f})"
               if self.sa_outliers else ""),
            f"  refresh faults  : {len(self.dropped_rows())} dropped, "
            f"{len(self.late_rows())} late",
        ]
        return "\n".join(lines)


def generate_fault_plan(*, seed: int, n_blocks: int, rows_per_block: int,
                        word_bits: int = 32,
                        weak_cell_fraction: float = 0.001,
                        retention_model=None,
                        retention_floor: float = 50 * us,
                        stuck_bit_fraction: float = 0.0002,
                        sa_outlier_fraction: float = 0.01,
                        sa_outlier_sigma: float = 0.5,
                        refresh_drop_fraction: float = 0.0,
                        refresh_late_fraction: float = 0.0,
                        max_late_cycles: int = 64) -> FaultPlan:
    """Draw a seeded :class:`FaultPlan` for one matrix.

    Weak-cell retention times come from the low tail of
    ``retention_model`` (the weakest draws of a matrix-sized
    :meth:`~repro.variability.retention.RetentionModel.sample_many`
    population); without a model they fall on a lognormal around
    ``retention_floor``.  All fractions are of the matrix's rows; the
    same ``seed`` always produces the identical plan.
    """
    for name, fraction in (("weak_cell_fraction", weak_cell_fraction),
                           ("stuck_bit_fraction", stuck_bit_fraction),
                           ("sa_outlier_fraction", sa_outlier_fraction),
                           ("refresh_drop_fraction", refresh_drop_fraction),
                           ("refresh_late_fraction", refresh_late_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"{name}={fraction!r} must lie in [0, 1]")
    if max_late_cycles < 1:
        raise ConfigurationError("max_late_cycles must be >= 1")

    rng = np.random.default_rng(seed)
    total_rows = n_blocks * rows_per_block

    def pick_rows(fraction: float) -> np.ndarray:
        count = int(round(fraction * total_rows))
        count = min(count, total_rows)
        if count == 0:
            return np.empty(0, dtype=int)
        return rng.choice(total_rows, size=count, replace=False)

    # Weak cells: the weakest draws of a matrix-sized population.
    weak_rows = np.sort(pick_rows(weak_cell_fraction))
    if len(weak_rows):
        if retention_model is not None:
            population = retention_model.sample_many(rng, total_rows)
            retentions = np.sort(population)[:len(weak_rows)]
        else:
            retentions = retention_floor * rng.lognormal(
                0.0, 0.5, size=len(weak_rows))
    else:
        retentions = np.empty(0)
    weak_cells = tuple(
        WeakCell(block=int(r) // rows_per_block,
                 row=int(r) % rows_per_block,
                 retention_time=float(t))
        for r, t in zip(weak_rows, retentions))

    stuck_rows = np.sort(pick_rows(stuck_bit_fraction))
    stuck_bits = tuple(
        StuckBit(block=int(r) // rows_per_block,
                 row=int(r) % rows_per_block,
                 bit=int(rng.integers(word_bits)),
                 stuck_value=int(rng.integers(2)))
        for r in stuck_rows)

    n_outliers = min(int(round(sa_outlier_fraction * n_blocks)), n_blocks)
    outlier_blocks = (np.sort(rng.choice(n_blocks, size=n_outliers,
                                         replace=False))
                      if n_outliers else np.empty(0, dtype=int))
    sa_outliers = tuple(
        SenseAmpOutlier(block=int(b),
                        offset_multiplier=float(
                            1.0 + abs(rng.normal(0.0, sa_outlier_sigma))))
        for b in outlier_blocks)

    dropped = pick_rows(refresh_drop_fraction)
    late = pick_rows(refresh_late_fraction)
    late = late[~np.isin(late, dropped)]  # a dead driver cannot be late
    refresh_faults = tuple(
        RefreshFault(row=int(r), kind="drop") for r in np.sort(dropped)
    ) + tuple(
        RefreshFault(row=int(r), kind="late",
                     delay_cycles=int(rng.integers(1, max_late_cycles + 1)))
        for r in np.sort(late))

    return FaultPlan(
        seed=seed,
        n_blocks=n_blocks,
        rows_per_block=rows_per_block,
        word_bits=word_bits,
        weak_cells=weak_cells,
        stuck_bits=stuck_bits,
        sa_outliers=sa_outliers,
        refresh_faults=refresh_faults,
    )
