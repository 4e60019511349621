"""Linear circuit elements and independent sources.

Waveforms are plain callables ``time -> value``; :func:`dc`,
:func:`pulse` and :func:`pwl` build the common ones.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.spice.netlist import CircuitElement

Waveform = Callable[[float], float]


def dc(value: float) -> Waveform:
    """Constant waveform."""
    return lambda _t: value


def pulse(low: float, high: float, delay: float, rise: float,
          width: float, fall: float | None = None,
          period: float | None = None) -> Waveform:
    """SPICE-style pulse: low until ``delay``, ramp to high over ``rise``,
    hold ``width``, ramp back over ``fall``; optionally periodic."""
    fall = rise if fall is None else fall
    if min(rise, fall) <= 0 or width < 0 or delay < 0:
        raise ConfigurationError("pulse needs positive edges and non-negative times")
    cycle = delay + rise + width + fall

    def waveform(t: float) -> float:
        if period is not None and t > delay:
            t = delay + (t - delay) % period
        if t <= delay:
            return low
        t -= delay
        if t < rise:
            return low + (high - low) * t / rise
        t -= rise
        if t < width:
            return high
        t -= width
        if t < fall:
            return high + (low - high) * t / fall
        return low

    if period is not None and period < cycle - delay:
        raise ConfigurationError("pulse period shorter than one pulse")
    return waveform


def pwl(points: Sequence[Tuple[float, float]]) -> Waveform:
    """Piece-wise linear waveform through ``(time, value)`` points."""
    if len(points) < 1:
        raise ConfigurationError("pwl needs at least one point")
    times = [t for t, _v in points]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigurationError("pwl times must be strictly increasing")
    values = [v for _t, v in points]

    def waveform(t: float) -> float:
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        idx = bisect.bisect_right(times, t)
        t0, t1 = times[idx - 1], times[idx]
        v0, v1 = values[idx - 1], values[idx]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    return waveform


class Resistor(CircuitElement):
    """Linear resistor."""

    def __init__(self, name: str, node_a: str, node_b: str, resistance: float) -> None:
        super().__init__(name)
        if resistance <= 0:
            raise ConfigurationError(f"resistance must be positive, got {resistance}")
        self.node_a, self.node_b = node_a, node_b
        self.resistance = resistance

    def terminals(self) -> List[str]:
        return [self.node_a, self.node_b]

    def current(self, v_a: float, v_b: float) -> float:
        """Current flowing a -> b."""
        return (v_a - v_b) / self.resistance


class Capacitor(CircuitElement):
    """Linear capacitor with optional initial condition.

    In transient analysis the capacitor is replaced by its companion
    model (conductance + history current); in DC it is an open circuit
    (with a gmin leak so nodes connected only by capacitors still solve).
    """

    def __init__(self, name: str, node_a: str, node_b: str, capacitance: float,
                 initial_voltage: float | None = None) -> None:
        """``capacitance`` in farads; ``initial_voltage`` in volts
        (``None`` lets the DC solve choose it)."""
        super().__init__(name)
        if capacitance <= 0:
            raise ConfigurationError(f"capacitance must be positive, got {capacitance}")
        self.node_a, self.node_b = node_a, node_b
        self.capacitance = capacitance
        self.initial_voltage = initial_voltage

    def terminals(self) -> List[str]:
        return [self.node_a, self.node_b]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        return [(self.node_a, "capacitive"), (self.node_b, "capacitive")]


class VoltageSource(CircuitElement):
    """Independent voltage source; the branch current flows p -> n inside
    the source, so a source *delivering* power has a negative branch
    current."""

    def __init__(self, name: str, node_p: str, node_n: str,
                 waveform: Waveform) -> None:
        super().__init__(name)
        self.node_p, self.node_n = node_p, node_n
        self.waveform = waveform

    def terminals(self) -> List[str]:
        return [self.node_p, self.node_n]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        return [(self.node_p, "constraint"), (self.node_n, "constraint")]

    def is_source(self) -> bool:
        return True


class CurrentSource(CircuitElement):
    """Independent current source pushing current from -> to."""

    def __init__(self, name: str, node_from: str, node_to: str,
                 waveform: Waveform) -> None:
        super().__init__(name)
        self.node_from, self.node_to = node_from, node_to
        self.waveform = waveform

    def terminals(self) -> List[str]:
        return [self.node_from, self.node_to]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        return [(self.node_from, "injection"), (self.node_to, "injection")]


class Diode(CircuitElement):
    """Exponential junction diode (Shockley, companion-model stamped).

    ``i = i_sat * (exp(v / v_t) - 1)`` from anode to cathode, linearised
    each Newton iteration around the present voltage.  The exponential
    is clamped above ``v_clip`` (linear continuation) so a bad Newton
    step cannot overflow — the classic stiff element that motivates the
    recovery ladder: plain Newton from a cold start overshoots, while
    gmin or source stepping walks in gradually.
    """

    def __init__(self, name: str, anode: str, cathode: str,
                 i_sat: float = 1e-14, v_t: float = 0.02585,  # noqa: L101 - thermal voltage, volts
                 v_clip: float = 0.9) -> None:
        super().__init__(name)
        if i_sat <= 0 or v_t <= 0:
            raise ConfigurationError("diode needs positive i_sat and v_t")
        self.anode, self.cathode = anode, cathode
        self.i_sat, self.v_t = i_sat, v_t
        self.v_clip = v_clip

    def terminals(self) -> List[str]:
        return [self.anode, self.cathode]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        return [(self.anode, "conductive"), (self.cathode, "conductive")]

    def is_nonlinear(self) -> bool:
        return True

    def current_and_conductance(self, v: float) -> Tuple[float, float]:
        """(i, di/dv) at forward voltage ``v``, with the overflow clamp."""
        if v <= self.v_clip:
            e = math.exp(v / self.v_t)
            return self.i_sat * (e - 1.0), self.i_sat * e / self.v_t
        # Linear continuation beyond the clip keeps Newton finite.
        e = math.exp(self.v_clip / self.v_t)
        g = self.i_sat * e / self.v_t
        i = self.i_sat * (e - 1.0) + g * (v - self.v_clip)
        return i, g


class Switch(CircuitElement):
    """Voltage-controlled switch with a smooth on/off transition.

    The conductance interpolates between on and off with a logistic curve
    of width ``transition`` around ``threshold`` so Newton iteration
    stays differentiable.  Used for ideal precharge/equalise devices
    where a full MOSFET model would be noise.
    """

    def __init__(self, name: str, node_a: str, node_b: str,
                 ctrl_p: str, ctrl_n: str, threshold: float = 0.6,
                 r_on: float = 100.0, r_off: float = 1e12,  # noqa: L101 - ideal open, ohms
                 transition: float = 0.02) -> None:
        super().__init__(name)
        if r_on <= 0 or r_off <= r_on:
            raise ConfigurationError("switch needs 0 < r_on < r_off")
        if transition <= 0:
            raise ConfigurationError("switch transition width must be positive")
        self.node_a, self.node_b = node_a, node_b
        self.ctrl_p, self.ctrl_n = ctrl_p, ctrl_n
        self.threshold = threshold
        self.g_on, self.g_off = 1.0 / r_on, 1.0 / r_off
        self.transition = transition

    def terminals(self) -> List[str]:
        return [self.node_a, self.node_b, self.ctrl_p, self.ctrl_n]

    def terminal_roles(self) -> List[Tuple[str, str]]:
        return [(self.node_a, "conductive"), (self.node_b, "conductive"),
                (self.ctrl_p, "sense"), (self.ctrl_n, "sense")]

    def is_nonlinear(self) -> bool:
        return True

    def conductance(self, v_ctrl: float) -> float:
        arg = (v_ctrl - self.threshold) / self.transition
        # Logistic, clamped to avoid overflow.
        if arg > 40:
            frac = 1.0
        elif arg < -40:
            frac = 0.0
        else:
            frac = 1.0 / (1.0 + math.exp(-arg))
        return self.g_off + (self.g_on - self.g_off) * frac
