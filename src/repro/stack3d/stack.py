"""Die stacks and the hybrid 3D cache system of paper Fig. 2.

Fig. 2 sketches the application: logic dies (the cores) stacked under a
memory die that carries *both* cache levels — the proposed fast DRAM as
first level and regular-density DRAM as second level, connected by TSVs.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.array.macro import MacroDesign
from repro.core.fastdram import FastDramDesign
from repro.errors import ConfigurationError
from repro.stack3d.routing import RoutingLink, tsv_link
from repro.stack3d.tsv import TsvModel
from repro.units import kb, Mb, mm2


@dataclasses.dataclass(frozen=True)
class Die:
    """One die of the stack."""

    name: str
    kind: str  # "logic" or "memory"
    area: float  # m^2
    macros: Tuple[MacroDesign, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("logic", "memory"):
            raise ConfigurationError(f"unknown die kind {self.kind!r}")
        if self.area <= 0:
            raise ConfigurationError("die area must be positive")
        macro_area = sum(m.area() for m in self.macros)
        if macro_area > self.area:
            raise ConfigurationError(
                f"die {self.name!r}: macros need {macro_area / mm2:.2f} mm^2 "
                f"but the die has {self.area / mm2:.2f} mm^2"
            )


@dataclasses.dataclass(frozen=True)
class DieStack:
    """A vertical stack of dies linked by TSVs."""

    dies: Tuple[Die, ...]
    tsv: TsvModel = dataclasses.field(default_factory=TsvModel)

    def __post_init__(self) -> None:
        if len(self.dies) < 2:
            raise ConfigurationError("a stack needs at least two dies")

    @property
    def footprint(self) -> float:
        """Stack footprint = largest die, m^2."""
        return max(die.area for die in self.dies)

    def interface(self, lower: int = 0, upper: int = 1) -> RoutingLink:
        """The TSV link between two adjacent dies."""
        if not (0 <= lower < len(self.dies) and 0 <= upper < len(self.dies)):
            raise ConfigurationError("die index out of range")
        if abs(upper - lower) != 1:
            raise ConfigurationError("TSVs only link adjacent dies")
        shared = min(self.dies[lower].area, self.dies[upper].area)
        return tsv_link(shared, tsv=self.tsv)

    def memory_capacity(self) -> int:
        """Total bits of all memory macros in the stack."""
        return sum(
            m.organization.total_bits
            for die in self.dies for m in die.macros
        )


def hybrid_cache_stack(logic_area: float = 25 * mm2,
                       l1_bits: int = 128 * kb,
                       l2_bits: int = 2 * Mb) -> DieStack:
    """Build the paper Fig. 2 system: cores below, hybrid cache above.

    The memory die carries the fast DRAM (L1) next to a dense
    conventional-organization DRAM (L2, modelled as the fast design with
    maximal LBL sharing — density over speed).
    """
    l1 = FastDramDesign(technology="dram").build(l1_bits)
    # L2: same cell, coarse granularity (128 cells/LBL) = denser, slower.
    l2 = FastDramDesign(technology="dram", cells_per_lbl=128).build(l2_bits)
    memory_die = Die(
        name="memory",
        kind="memory",
        area=max(logic_area, 1.2 * (l1.area() + l2.area())),
        macros=(l1, l2),
    )
    logic_die = Die(name="logic", kind="logic", area=logic_area)
    return DieStack(dies=(logic_die, memory_die))
