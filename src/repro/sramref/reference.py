"""Published figures of the baseline SRAM ([10], ESSCIRC 2008).

"A 3.6 pJ/access 480 MHz, 128 kbit on-chip SRAM with 850 MHz boost mode
in 90 nm CMOS with tunable sense amplifiers" — these numbers anchor the
calibration of our shared array model: the SRAM instance of the skeleton
should land near them, which transfers credibility to the DRAM instance.
"""

from __future__ import annotations

import dataclasses

from repro.errors import CalibrationError
from repro.units import MHz, kb, ns, pJ


@dataclasses.dataclass(frozen=True)
class Esscirc2008Reference:
    """Silicon figures published for the baseline SRAM."""

    capacity_bits: int
    energy_per_access: float  # joules
    nominal_frequency: float  # Hz
    boost_frequency: float  # Hz
    technology: str

    @property
    def nominal_cycle_time(self) -> float:
        return 1.0 / self.nominal_frequency

    @property
    def boost_cycle_time(self) -> float:
        return 1.0 / self.boost_frequency

    def check_energy(self, modelled: float, tolerance: float = 0.35) -> float:
        """Relative model error vs the published energy.

        Raises :class:`CalibrationError` outside ``tolerance`` — the
        guard that keeps the model honest when constants are touched.
        """
        error = (modelled - self.energy_per_access) / self.energy_per_access
        if abs(error) > tolerance:
            raise CalibrationError(
                f"modelled SRAM energy {modelled / pJ:.2f} pJ deviates "
                f"{100 * error:+.0f} % from the published "
                f"{self.energy_per_access / pJ:.1f} pJ"
            )
        return error

    def check_access_time(self, modelled: float,
                          tolerance: float = 0.45) -> float:
        """Relative model error vs the published boost cycle time.

        The boost-mode cycle bounds the access time from above; the
        nominal cycle leaves slack, so the anchor is the boost figure.
        """
        anchor = self.boost_cycle_time
        error = (modelled - anchor) / anchor
        if abs(error) > tolerance:
            raise CalibrationError(
                f"modelled SRAM access {modelled / ns:.2f} ns deviates "
                f"{100 * error:+.0f} % from the boost cycle "
                f"{anchor / ns:.2f} ns"
            )
        return error


PUBLISHED_REFERENCE = Esscirc2008Reference(
    capacity_bits=128 * kb,
    energy_per_access=3.6 * pJ,
    nominal_frequency=480 * MHz,
    boost_frequency=850 * MHz,
    technology="90nm CMOS",
)
