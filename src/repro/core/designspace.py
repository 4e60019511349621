"""Design-space sweeps and architecture ablations.

The ablations quantify the paper's three architectural choices by
turning each one off:

* ``local_restore`` — without the local write-after-read, the restore
  runs over the GBL through the global write circuitry: the refresh-row
  energy picks up the full global write path and the restore time lands
  on the access path (a conventional-DRAM-like macro).
* ``low_swing_gbl`` — a full-swing GBL multiplies the global-bitline
  energy by ``(vdd / swing)^2``-ish supply charge.
* ``fine_granularity`` — one big block (all cells of a column on one
  bitline): the charge-sharing signal collapses; the sweep shows how far
  the signal degrades per LBL length, reproducing the paper's "very
  short local bitlines" argument.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.checkpoint import Checkpoint, RunBudget, SweepOutcome
from repro.core.fastdram import FastDramDesign
from repro.exec import run_parallel_sweep
from repro.errors import ConfigurationError
from repro.array.timing import GBL_SUPPLY, GBL_SWING
from repro.units import kb, ms


@dataclasses.dataclass(frozen=True)
class LblSweepRow:
    """One point of the cells-per-LBL sweep."""

    cells_per_lbl: int
    access_time: float
    read_energy: float
    write_energy: float
    area: float
    read_signal: float


def sweep_cells_per_lbl(values: Sequence[int] = (4, 8, 16, 32, 64, 128),
                        technology: str = "dram",
                        total_bits: int = 128 * kb) -> List[LblSweepRow]:
    """Sweep the local-bitline length (paper Sec. III: 16 -> 32 cells).

    Doubling the cells per LBL must have "a marginal impact on the power
    consumption, as most of the localblock power consumption is due to
    the local sense amplifiers" (paper Sec. IV) — the benchmark asserts
    this on the returned rows.
    """
    rows = []
    for cells in values:
        design = FastDramDesign(technology=technology, cells_per_lbl=cells)
        try:
            macro = design.build(total_bits, retention_override=1 * ms)
            rows.append(LblSweepRow(
                cells_per_lbl=cells,
                access_time=macro.access_time(),
                read_energy=macro.read_energy().total,
                write_energy=macro.write_energy().total,
                area=macro.area(),
                read_signal=macro.organization.read_signal(),
            ))
        except ConfigurationError:
            # Signal too small for the SA at this LBL length: the sweep
            # records nothing — exactly the infeasibility the paper's
            # fine subdivision avoids.
            continue
    if not rows:
        raise ConfigurationError("no feasible LBL length in the sweep")
    return rows


@dataclasses.dataclass(frozen=True)
class RetentionSweepRow:
    """One point of the retention sweep (drives Fig. 5 and Fig. 7c)."""

    retention_time: float
    static_power: float
    refresh_rows_per_second: float


def sweep_retention(values: Sequence[float],
                    total_bits: int = 128 * kb) -> List[RetentionSweepRow]:
    """Static power across assumed worst-case retention times."""
    if any(v <= 0 for v in values):
        raise ConfigurationError("retention times must be positive")
    design = FastDramDesign()
    rows = []
    for retention in values:
        macro = design.build(total_bits, retention_override=retention)
        report = macro.static_power()
        rows.append(RetentionSweepRow(
            retention_time=retention,
            static_power=report.power,
            refresh_rows_per_second=macro.organization.n_words / retention,
        ))
    return rows


def _evaluate_retention_row(retention: float,
                            total_bits: int) -> RetentionSweepRow:
    """One retention point (module-level so worker processes can
    unpickle it); ``retention`` in seconds."""
    macro = FastDramDesign().build(total_bits, retention_override=retention)
    return RetentionSweepRow(
        retention_time=retention,
        static_power=macro.static_power().power,
        refresh_rows_per_second=macro.organization.n_words / retention,
    )


def sweep_retention_resumable(values: Sequence[float],
                              total_bits: int = 128 * kb,
                              checkpoint: Optional[Checkpoint] = None,
                              budget: Optional[RunBudget] = None,
                              jobs: int = 1,
                              batch: int = 1) -> SweepOutcome:
    """Checkpointed, budget-bounded :func:`sweep_retention`.

    Returns a :class:`~repro.checkpoint.SweepOutcome` whose ``results``
    map ``"retention=<seconds>"`` keys to :class:`RetentionSweepRow`
    values; a killed run resumed from the same checkpoint completes
    with exactly the rows an uninterrupted run would have produced.
    ``jobs > 1`` fans the points out over worker processes with
    identical results and checkpoint contents.  The rows are analytic,
    so ``batch`` only sets the dispatch chunk size (points per worker
    round-trip) — results are identical at every setting.
    """
    if any(v <= 0 for v in values):
        raise ConfigurationError("retention times must be positive")
    if batch < 1:
        raise ConfigurationError("batch must be >= 1")
    items = [(f"retention={retention:g}", _evaluate_retention_row,
              (retention, total_bits))
             for retention in values]
    return run_parallel_sweep(
        items, jobs=jobs, checkpoint=checkpoint, budget=budget,
        encode=dataclasses.asdict,
        decode=lambda raw: RetentionSweepRow(**raw),
        chunk_size=batch if batch > 1 else None,
    )


@dataclasses.dataclass(frozen=True)
class SizeSweepRow:
    """One memory-size point of the scaling sweep."""

    total_bits: int
    access_time: float
    read_energy: float
    write_energy: float
    area: float
    static_power: float


def sweep_sizes(sizes: Sequence[int] = (128 * kb, 512 * kb, 2048 * kb),
                technology: str = "dram",
                retention_override: float = 1 * ms) -> List[SizeSweepRow]:
    """The paper's extension to larger memories (Sec. III last step)."""
    design = FastDramDesign(technology=technology)
    rows = []
    for bits in sizes:
        macro = design.build(bits, retention_override=retention_override)
        rows.append(SizeSweepRow(
            total_bits=bits,
            access_time=macro.access_time(),
            read_energy=macro.read_energy().total,
            write_energy=macro.write_energy().total,
            area=macro.area(),
            static_power=macro.static_power().power,
        ))
    return rows


@dataclasses.dataclass(frozen=True)
class AblationResult:
    """Proposed architecture vs one disabled feature."""

    feature: str
    proposed_value: float
    ablated_value: float
    metric: str

    @property
    def penalty_factor(self) -> float:
        """ablated / proposed — >1 quantifies what the feature buys."""
        if self.proposed_value <= 0:
            raise ConfigurationError("proposed value must be positive")
        return self.ablated_value / self.proposed_value


def ablate_architecture(total_bits: int = 128 * kb,
                        retention_override: float = 1 * ms
                        ) -> List[AblationResult]:
    """Quantify each architectural choice by disabling it."""
    design = FastDramDesign()
    macro = design.build(total_bits, retention_override=retention_override)
    org = macro.organization
    energy = macro.energy_model
    timing = macro.timing_model
    results = []

    # 1) Local write-after-read: without it, every read and every refresh
    #    restores over the GBL through the global write path.
    local_refresh = energy.refresh_row_energy()
    global_restore = local_refresh + energy.global_path_energy(write=True)
    results.append(AblationResult(
        feature="local_restore",
        proposed_value=local_refresh,
        ablated_value=global_restore,
        metric="refresh_row_energy_j",
    ))
    hidden_restore = timing.write_after_read_delay()
    results.append(AblationResult(
        feature="local_restore_latency",
        proposed_value=macro.access_time(),
        ablated_value=macro.access_time() + hidden_restore,
        metric="access_time_s",
    ))

    # 2) Low-swing GBL: full-swing global bitlines.
    low_swing = org.word_bits * org.gbl_capacitance() * GBL_SWING * GBL_SUPPLY
    full_swing = org.word_bits * org.gbl_capacitance() * org.node.vdd ** 2 * 0.5
    read = macro.read_energy().total
    results.append(AblationResult(
        feature="low_swing_gbl",
        proposed_value=read,
        ablated_value=read - low_swing + full_swing,
        metric="read_energy_j",
    ))

    # 3) Fine granularity: one block per column of the whole matrix; the
    #    charge-sharing signal collapses with the long bitline.
    monoblock_cells = org.total_bits // org.word_bits
    mono_org = dataclasses.replace(
        org, cells_per_lbl=monoblock_cells, block_columns=None)
    results.append(AblationResult(
        feature="fine_granularity_signal",
        proposed_value=org.read_signal(),
        ablated_value=mono_org.read_signal(),
        metric="read_signal_v",
    ))
    return results
