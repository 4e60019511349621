"""Area model (paper Fig. 7d and Table I).

Total macro area = cell matrix (cells + local-SA strips, captured by the
block geometry of :class:`ArrayOrganization`) + global peripherals.  The
paper's peripherals were "originally designed for an SRAM" and kept
constant when swapping the cell, which the model mirrors: peripheral
area is derived from the matrix *perimeter* in SRAM-generation units and
from the fixed global circuitry (decoders, global SAs, IO, control).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.array.organization import ArrayOrganization
from repro.units import mm2, um, um2


@dataclasses.dataclass(frozen=True)
class FloorplanBreakdown:
    """Area components of one macro, m^2."""

    cells: float
    local_periphery: float
    row_periphery: float
    column_periphery: float
    corner_control: float

    @property
    def total(self) -> float:
        return (self.cells + self.local_periphery + self.row_periphery
                + self.column_periphery + self.corner_control)

    @property
    def array_efficiency(self) -> float:
        """Fraction of the macro covered by storage cells."""
        return self.cells / self.total

    def breakdown(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


#: Shrink factor of DRAM-dedicated peripheral strips vs the reused SRAM
#: generation (the paper's future work: "further gain should be possible
#: by designing peripherals dedicated to a DRAM matrix").  Dedicated
#: peripherals drop the differential-SRAM column circuitry and pitch-match
#: to the smaller cell.
DEDICATED_PERIPHERY_FACTOR = 0.65


@dataclasses.dataclass(frozen=True)
class Floorplan:
    """Area estimator for one organization.

    ``row_periphery_width`` / ``column_periphery_height`` are the strips
    of decoders/drivers along the matrix edges; ``corner_area`` holds
    control, timing chains and IO.  All three are sized in the SRAM
    design generation's dimensions (constant when the cell changes) —
    unless ``dedicated_periphery`` is set, which models the paper's
    future-work option of DRAM-specific peripherals.
    """

    organization: ArrayOrganization
    row_periphery_width: float = 45.0 * um
    column_periphery_height: float = 60.0 * um
    corner_area: float = 2700.0 * um2
    dedicated_periphery: bool = False

    def _periphery_scale(self) -> float:
        if not self.dedicated_periphery:
            return 1.0
        if not self.organization.cell.is_dynamic:
            # Dedicated *DRAM* peripherals do nothing for an SRAM matrix.
            return 1.0
        return DEDICATED_PERIPHERY_FACTOR

    def breakdown(self) -> FloorplanBreakdown:
        org = self.organization
        scale = self._periphery_scale()
        cells = org.total_bits * org.cell.area
        strips = (org.n_localblocks * org.block_width
                  * org.local_sa_strip_height) * scale
        row = org.matrix_height * self.row_periphery_width * scale
        column = org.matrix_width * self.column_periphery_height * scale
        return FloorplanBreakdown(
            cells=cells,
            local_periphery=strips,
            row_periphery=row,
            column_periphery=column,
            corner_control=self.corner_area * scale,
        )

    def total_area(self) -> float:
        """Macro area, m^2."""
        return self.breakdown().total

    def describe(self) -> str:
        b = self.breakdown()
        return (
            f"{self.organization.describe()}: "
            f"{b.total / mm2:.4f} mm^2 "
            f"(cells {100 * b.array_efficiency:.0f} %)"
        )
