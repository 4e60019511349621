"""PVT (process, voltage, temperature) analysis of the macro designs.

The paper quotes single worst-case numbers; a production evaluation
needs the full corner picture: how much slower at SS, how much leakier
at FF/hot, and — the DRAM-specific question — how much *retention* (and
hence refresh power) is lost at high temperature.  This module
re-evaluates any design across :class:`~repro.tech.corners.Corner` and
temperature, reusing the identical model stack.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.fastdram import FastDramDesign
from repro.errors import ConfigurationError
from repro.sramref.model import SramBaselineDesign
from repro.tech.corners import Corner, apply_corner
from repro.units import kb


@dataclasses.dataclass(frozen=True)
class PvtPoint:
    """One (corner, temperature) evaluation of one design."""

    corner: Corner
    temperature: float
    access_time: float
    read_energy: float
    static_power: float
    worst_retention: float | None  # None for static cells

    @property
    def label(self) -> str:
        return f"{self.corner.value.upper()}@{self.temperature:.0f}K"


@dataclasses.dataclass(frozen=True)
class PvtAnalysis:
    """Corner/temperature sweep harness.

    Parameters
    ----------
    technology:
        "dram", "scratchpad" or "sram" — which design to sweep.
    total_bits:
        Macro capacity.
    retention_samples:
        Monte-Carlo size for the per-corner retention estimate (dynamic
        cells); retention is *recomputed per corner* because junction
        leakage roughly doubles every 10 K — the dominant PVT effect on
        the DRAM's static power.
    seed:
        RNG seed for the per-corner retention Monte-Carlo.
    """

    technology: str = "dram"
    total_bits: int = 128 * kb
    retention_samples: int = 600
    seed: int = 0

    def __post_init__(self) -> None:
        if self.technology not in ("dram", "scratchpad", "sram"):
            raise ConfigurationError(
                f"unknown technology {self.technology!r}")
        if self.total_bits <= 0:
            raise ConfigurationError("total_bits must be positive")

    def _base_node(self):
        if self.technology == "sram":
            return SramBaselineDesign().node
        return FastDramDesign(technology=self.technology).node()

    def evaluate(self, corner: Corner, temperature: float) -> PvtPoint:
        """Evaluate the design at one PVT point."""
        node = apply_corner(self._base_node(), corner, temperature)
        if self.technology == "sram":
            macro = SramBaselineDesign(node=node).build(self.total_bits)
            retention = None
        else:
            design = FastDramDesign(technology=self.technology,
                                    node_override=node)
            stats = design.cell().retention_model().statistics(
                count=self.retention_samples, seed=self.seed)
            retention = stats.worst_case
            macro = design.build(self.total_bits,
                                 retention_override=retention)
        return PvtPoint(
            corner=corner,
            temperature=temperature,
            access_time=macro.access_time(),
            read_energy=macro.read_energy().total,
            static_power=macro.static_power().power,
            worst_retention=retention,
        )

    def sweep(self, corners: Sequence[Corner] = (Corner.SS, Corner.TT,
                                                 Corner.FF),
              temperatures: Sequence[float] = (300.0, 358.0)
              ) -> List[PvtPoint]:
        """The classical corner matrix."""
        points = []
        for temperature in temperatures:
            for corner in corners:
                points.append(self.evaluate(corner, temperature))
        return points

