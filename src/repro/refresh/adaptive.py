"""Adaptive refresh extensions (the paper's future-work direction).

The paper refreshes the whole matrix at the single worst cell's rate —
"very conservative" by its own admission.  Two standard refinements are
implemented here, both enabled by the localized-refresh architecture
(per-block refresh is exactly what Fig. 4 makes cheap):

* :class:`TemperatureAdaptiveRefresh` — the refresh period tracks the
  die temperature through the retention derating (junction leakage
  doubles every ~10 K), instead of sitting at the hot worst case.
* :func:`plan_binned_refresh` — RAIDR-style retention binning: each
  local block is refreshed at a rate set by *its own* worst cell,
  quantised to power-of-two multiples of the base period.  Because the
  worst cell of the whole matrix is an extreme-tail event, most blocks
  can refresh far less often.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.variability.retention import RetentionModel
from repro.units import pJ


@dataclasses.dataclass(frozen=True)
class TemperatureAdaptiveRefresh:
    """Temperature-tracking refresh period.

    Parameters
    ----------
    base_retention:
        Worst-case retention at ``base_temperature``, seconds.
    base_temperature:
        Temperature of the calibration point, kelvin.
    doubling_interval:
        Kelvins of temperature rise that halve retention (~10 K for
        junction-dominated leakage).
    guard:
        Refresh-period guard band below the retention.
    """

    base_retention: float
    base_temperature: float = 300.0
    doubling_interval: float = 10.0
    guard: float = 2.0

    def __post_init__(self) -> None:
        if self.base_retention <= 0:
            raise ConfigurationError("base retention must be positive")
        if self.doubling_interval <= 0:
            raise ConfigurationError("doubling interval must be positive")
        if self.guard < 1.0:
            raise ConfigurationError("guard must be >= 1")

    def retention_at(self, temperature: float) -> float:
        """Worst-case retention at ``temperature``, seconds."""
        delta = temperature - self.base_temperature
        return self.base_retention * 2.0 ** (-delta / self.doubling_interval)

    def refresh_period_at(self, temperature: float) -> float:
        """Refresh period the controller programs at ``temperature``."""
        return self.retention_at(temperature) / self.guard

    def power_saving_vs_fixed(self, temperature: float,
                              fixed_worst_temperature: float) -> float:
        """Refresh-power ratio fixed-worst-case / adaptive (>= 1).

        A fixed controller must assume ``fixed_worst_temperature``; the
        adaptive one refreshes at the actual temperature's rate.
        """
        if temperature > fixed_worst_temperature:
            raise ConfigurationError(
                "operating temperature exceeds the fixed design point")
        fixed = self.refresh_period_at(fixed_worst_temperature)
        adaptive = self.refresh_period_at(temperature)
        return adaptive / fixed


@dataclasses.dataclass(frozen=True)
class RefreshBin:
    """One retention bin of the binned-refresh plan."""

    period: float  # seconds between refreshes of blocks in this bin
    block_count: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("bin period must be positive")
        if self.block_count < 0:
            raise ConfigurationError("bin block count must be >= 0")


@dataclasses.dataclass(frozen=True)
class BinnedRefreshPlan:
    """Outcome of retention binning over a matrix."""

    bins: List[RefreshBin]
    rows_per_block: int
    base_period: float
    uniform_period: float  # what a single worst-case controller would use

    def __post_init__(self) -> None:
        if not self.bins:
            raise ConfigurationError("plan needs at least one bin")

    @property
    def n_blocks(self) -> int:
        return sum(b.block_count for b in self.bins)

    def refresh_power(self, row_energy: float) -> float:
        """Total refresh power under the plan, watts.

        ``row_energy`` is the energy of one row refresh, joules.
        """
        if row_energy <= 0:
            raise ConfigurationError("row energy must be positive")
        return sum(
            bin_.block_count * self.rows_per_block * row_energy / bin_.period
            for bin_ in self.bins
        )

    def uniform_power(self, row_energy: float) -> float:
        """Refresh power of the paper's uniform worst-case scheme.

        ``row_energy`` is the energy of one row refresh, joules.
        """
        if row_energy <= 0:
            raise ConfigurationError("row energy must be positive")
        rows = self.n_blocks * self.rows_per_block
        return rows * row_energy / self.uniform_period

    def saving_factor(self, row_energy: float = 1 * pJ) -> float:
        """uniform / binned refresh power (>= 1 when binning helps).

        The ratio is independent of ``row_energy`` (joules); the
        default only has to be positive.
        """
        return self.uniform_power(row_energy) / self.refresh_power(row_energy)


def plan_binned_refresh(retention: RetentionModel,
                        n_blocks: int,
                        rows_per_block: int,
                        word_bits: int = 32,
                        n_bins: int = 4,
                        guard: float = 2.0,
                        seed: int = 0) -> BinnedRefreshPlan:
    """Build a RAIDR-style binned refresh plan for one matrix.

    Samples the retention of every cell (``rows_per_block * word_bits``
    per block), takes each block's worst cell, and assigns the block the
    longest power-of-two multiple of the base period that still clears
    its guard-banded worst retention.  The base period is the
    guard-banded matrix-wide worst case (bin 0 = the paper's uniform
    rate).
    """
    if n_blocks < 1 or rows_per_block < 1 or word_bits < 1:
        raise ConfigurationError("matrix dimensions must be >= 1")
    if n_bins < 1:
        raise ConfigurationError("need at least one bin")
    if guard < 1.0:
        raise ConfigurationError("guard must be >= 1")

    rng = np.random.default_rng(seed)
    cells_per_block = rows_per_block * word_bits
    samples = retention.sample_many(rng, n_blocks * cells_per_block)
    per_block_worst = samples.reshape(n_blocks, cells_per_block).min(axis=1)

    matrix_worst = float(per_block_worst.min())
    base_period = matrix_worst / guard

    counts = [0] * n_bins
    for worst in per_block_worst:
        allowed = worst / guard
        index = int(math.floor(math.log2(max(allowed / base_period, 1.0))))
        counts[min(index, n_bins - 1)] += 1

    bins = [RefreshBin(period=base_period * 2.0 ** i, block_count=c)
            for i, c in enumerate(counts)]
    return BinnedRefreshPlan(
        bins=bins,
        rows_per_block=rows_per_block,
        base_period=base_period,
        uniform_period=base_period,
    )
