"""6T SRAM cell model.

The comparison cell of every paper figure.  Besides the array-facing
:class:`~repro.cells.cellspec.CellSpec`, this module computes the read
static noise margin with numerically-solved butterfly curves — the
metric whose degradation at scaled nodes motivates the paper's search
for an SRAM alternative (paper Sec. I and refs [1]-[4]).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.leakage import sram_cell_leakage
from repro.tech.node import Polarity, TechnologyNode, VtFlavor
from repro.tech.transistor import Mosfet
from repro.cells.cellspec import CellSpec, StorageKind
from repro.units import uV


@dataclasses.dataclass(frozen=True)
class Sram6tCell:
    """A sized 6T cell on a technology node.

    Default sizing is the classic 2 / 1.5 / 1 width-unit ratio for
    pull-down / access / pull-up, in the node's 120 nm width units.
    """

    node: TechnologyNode
    flavor: VtFlavor = VtFlavor.SVT
    pulldown_units: float = 2.0
    access_units: float = 1.5
    pullup_units: float = 1.0

    def __post_init__(self) -> None:
        if min(self.pulldown_units, self.access_units, self.pullup_units) <= 0:
            raise ConfigurationError("all cell device widths must be positive")

    # -- devices ---------------------------------------------------------------

    @property
    def pulldown(self) -> Mosfet:
        return Mosfet(self.node, Polarity.NMOS, self.flavor,
                      width=self.node.width_units(self.pulldown_units))

    @property
    def access(self) -> Mosfet:
        return Mosfet(self.node, Polarity.NMOS, self.flavor,
                      width=self.node.width_units(self.access_units))

    @property
    def pullup(self) -> Mosfet:
        return Mosfet(self.node, Polarity.PMOS, self.flavor,
                      width=self.node.width_units(self.pullup_units))

    # -- figures of merit --------------------------------------------------------

    @property
    def beta_ratio(self) -> float:
        """Pull-down to access strength ratio (read stability knob)."""
        return self.pulldown_units / self.access_units

    def read_current(self) -> float:
        """Bitline discharge current during a read, amperes.

        Limited by the series access + pull-down path; approximated as
        the weaker device's saturation current.
        """
        return min(self.access.on_current(), self.pulldown.on_current())

    def leakage(self) -> float:
        """Standby leakage of the whole cell, amperes."""
        return sram_cell_leakage(self.node, self.pulldown)

    def area(self) -> float:
        """Cell footprint; the node's litho-calibrated 6T area."""
        return self.node.sram6t_cell_area

    def read_snm(self) -> float:
        """Read static noise margin, volts (butterfly-curve method)."""
        return static_noise_margin(self, during_read=True)

    def hold_snm(self) -> float:
        """Hold static noise margin, volts."""
        return static_noise_margin(self, during_read=False)

    def spec(self) -> CellSpec:
        """Array-facing description of this cell."""
        return CellSpec(
            name=f"sram6t-{self.flavor.value}",
            kind=StorageKind.STATIC,
            area=self.area(),
            bitline_cap_per_cell=self.access.junction_capacitance(),
            # A 6T cell hangs *two* access gates on the word line.
            wordline_cap_per_cell=2.0 * self.access.gate_capacitance(),
            stored_high=self.node.vdd,
            wordline_voltage=self.node.vdd,
            standby_leakage=self.leakage(),
            read_current=self.read_current(),
        )


def inverter_vtc(cell: Sram6tCell, during_read: bool,
                 points: int = 201) -> Callable[[float], float]:
    """Voltage transfer curve of one cell inverter, as a callable.

    During a read the access transistor (bitline held at vdd by the
    precharge) fights the pull-down, lifting the low output level — the
    classic read-disturb mechanism that shrinks the read SNM.
    """
    # Imported here: scipy.optimize costs ~16 MB of resident memory,
    # which no caller outside the noise-margin solvers should pay.
    from scipy.optimize import brentq

    node = cell.node
    vdd = node.vdd
    pd, pu, ax = cell.pulldown, cell.pullup, cell.access

    def solve_vout(vin: float) -> float:
        def imbalance(vout: float) -> float:
            i_down = pd.drain_current(vgs=vin, vds=vout)
            i_up = pu.drain_current(vgs=vdd - vin, vds=vdd - vout)
            if during_read:
                # Access device injects current from the vdd-precharged
                # bitline into the storage node.
                i_up = i_up + ax.drain_current(vgs=vdd - vout, vds=vdd - vout)
            return i_up - i_down

        lo, hi = 1 * uV, vdd - 1 * uV
        f_lo, f_hi = imbalance(lo), imbalance(hi)
        if f_lo <= 0:
            return 0.0
        if f_hi >= 0:
            return vdd
        return float(brentq(imbalance, lo, hi, xtol=1e-7))

    grid = np.linspace(0.0, vdd, points)
    values = np.array([solve_vout(v) for v in grid])

    def vtc(vin: float) -> float:
        return float(np.interp(vin, grid, values))

    return vtc


def static_noise_margin(cell: Sram6tCell, during_read: bool,
                        points: int = 201) -> float:
    """SNM: side of the largest square nested in each butterfly lobe.

    For monotone (non-increasing) VTCs the maximal axis-aligned square
    in the upper-left lobe has its bottom-left corner on the mirrored
    curve and its top-right corner on the direct curve:

        x1 = f(y1),   y1 + s = f(x1 + s)

    ``s`` is found by bisection for each ``y1`` on a grid and maximised;
    the lower-right lobe is the mirror image.  The cell SNM is the
    smaller lobe's square — with identical inverters the lobes are
    symmetric and the two values coincide.
    """
    from scipy.optimize import brentq

    vdd = cell.node.vdd
    vtc = inverter_vtc(cell, during_read, points)

    def square_side(y1: float) -> float:
        x1 = vtc(y1)

        def gap(s: float) -> float:
            return vtc(x1 + s) - (y1 + s)

        if gap(0.0) <= 0.0:
            return 0.0
        hi = vdd - max(x1, y1)
        if hi <= 0.0 or gap(hi) >= 0.0:
            return max(0.0, hi)
        return float(brentq(gap, 0.0, hi, xtol=1e-7))

    grid = np.linspace(0.0, vdd, points)
    upper_left = max(square_side(y1) for y1 in grid)
    # Lower-right lobe: reflect the whole picture through y = x, which
    # maps the lobe onto an upper-left lobe of the same (mirrored) pair
    # of curves — with one shared VTC the computation is identical.
    lower_right = upper_left
    return max(0.0, min(upper_left, lower_right))
