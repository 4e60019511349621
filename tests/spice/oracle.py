"""Per-element stamping reference for the compiled stamp plan.

:class:`~repro.spice.stampplan.StampPlan` compiles a circuit once and
assembles every Newton iterate from a cached linear base plus scatters
of device values.  This module keeps the textbook assembly it replaced
— every element stamps its companion model into a fresh dense matrix
through string-keyed node lookups, in :func:`stamping_order` — as the
test oracle.  :class:`OraclePlan` has the plan's interface, so a test
swaps it in for ``StampPlan`` (:func:`oracle_plans`) and drives it
through the same transient and DC loops; the solution matrices must be
equal to the last bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Optional

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice import linalg
from repro.spice.elements import (Capacitor, CurrentSource, Diode, Resistor,
                                  Switch, VoltageSource)
from repro.spice.mna import MnaSystem
from repro.spice.mosfet import _FD_STEP, MosfetElement
from repro.spice.stampplan import resolve_backend, stamping_order


class Assembly:
    """A dense MNA matrix and RHS under assembly, with the four
    textbook stamping primitives."""

    def __init__(self, system: MnaSystem) -> None:
        self.system = system
        self.matrix = np.zeros((system.size, system.size))
        self.rhs = np.zeros(system.size)

    def stamp_conductance(self, node_a: str, node_b: str, g: float) -> None:
        """Stamp conductance ``g`` between two nodes."""
        ia, ib = self.system.index(node_a), self.system.index(node_b)
        if ia >= 0:
            self.matrix[ia, ia] += g
        if ib >= 0:
            self.matrix[ib, ib] += g
        if ia >= 0 and ib >= 0:
            self.matrix[ia, ib] -= g
            self.matrix[ib, ia] -= g

    def stamp_transconductance(self, out_a: str, out_b: str,
                               in_a: str, in_b: str, gm: float) -> None:
        """Stamp ``gm``: current gm*(V(in_a)-V(in_b)) flowing out_a -> out_b."""
        index = self.system.index
        oa, ob = index(out_a), index(out_b)
        ia, ib = index(in_a), index(in_b)
        for out_idx, sign_out in ((oa, +1.0), (ob, -1.0)):
            if out_idx < 0:
                continue
            if ia >= 0:
                self.matrix[out_idx, ia] += sign_out * gm
            if ib >= 0:
                self.matrix[out_idx, ib] -= sign_out * gm

    def stamp_current(self, node_from: str, node_to: str,
                      current: float) -> None:
        """Stamp an independent current ``current`` flowing from -> to."""
        i_from, i_to = self.system.index(node_from), self.system.index(node_to)
        if i_from >= 0:
            self.rhs[i_from] -= current
        if i_to >= 0:
            self.rhs[i_to] += current

    def stamp_voltage_source(self, source_name: str, node_p: str,
                             node_n: str, voltage: float) -> None:
        """Stamp a voltage constraint; branch current flows p -> n inside."""
        br = self.system.branch(source_name)
        ip, in_ = self.system.index(node_p), self.system.index(node_n)
        if ip >= 0:
            self.matrix[ip, br] += 1.0
            self.matrix[br, ip] += 1.0
        if in_ >= 0:
            self.matrix[in_, br] -= 1.0
            self.matrix[br, in_] -= 1.0
        self.rhs[br] += voltage


@dataclasses.dataclass
class StampContext:
    """Everything an element reads while stamping one Newton iterate.

    ``x_prev`` is the solution at the previous accepted time point,
    ``dt`` is ``None`` for a DC solve, and ``cap_state`` maps capacitor
    names to their trapezoidal branch currents at the previous point.
    """

    system: Assembly
    x: np.ndarray
    x_prev: Optional[np.ndarray] = None
    dt: Optional[float] = None
    time: float = 0.0
    integrator: str = "be"
    cap_state: Optional[Dict[str, float]] = None
    gmin: float = 1e-12
    source_scale: float = 1.0

    def voltage(self, node: str, previous: bool = False) -> float:
        """Voltage of ``node`` in the current iterate (or previous step)."""
        idx = self.system.system.index(node)
        if idx < 0:
            return 0.0
        vector = self.x_prev if previous else self.x
        if vector is None:
            raise SimulationError("no previous solution available")
        return float(vector[idx])


# -- the element stamps ----------------------------------------------------


def _stamp_resistor(el: Resistor, ctx: StampContext) -> None:
    ctx.system.stamp_conductance(el.node_a, el.node_b, 1.0 / el.resistance)


def _stamp_capacitor(el: Capacitor, ctx: StampContext) -> None:
    if ctx.dt is None:
        ctx.system.stamp_conductance(el.node_a, el.node_b, ctx.gmin)
        return
    v_prev = ctx.voltage(el.node_a, previous=True) - ctx.voltage(
        el.node_b, previous=True
    )
    if ctx.integrator == "trap":
        geq = 2.0 * el.capacitance / ctx.dt
        i_prev = 0.0 if ctx.cap_state is None else ctx.cap_state.get(el.name, 0.0)
        ieq = geq * v_prev + i_prev
    else:  # backward Euler
        geq = el.capacitance / ctx.dt
        ieq = geq * v_prev
    ctx.system.stamp_conductance(el.node_a, el.node_b, geq)
    # History current flows b -> a (it opposes discharging).
    ctx.system.stamp_current(el.node_b, el.node_a, ieq)


def _stamp_voltage_source(el: VoltageSource, ctx: StampContext) -> None:
    ctx.system.stamp_voltage_source(
        el.name, el.node_p, el.node_n, el.waveform(ctx.time) * ctx.source_scale
    )


def _stamp_current_source(el: CurrentSource, ctx: StampContext) -> None:
    ctx.system.stamp_current(el.node_from, el.node_to,
                             el.waveform(ctx.time) * ctx.source_scale)


def _stamp_diode(el: Diode, ctx: StampContext) -> None:
    v = ctx.voltage(el.anode) - ctx.voltage(el.cathode)
    i, g = el.current_and_conductance(v)
    ctx.system.stamp_conductance(el.anode, el.cathode, g)
    # Companion current source carries the linearisation residue.
    ctx.system.stamp_current(el.anode, el.cathode, i - g * v)


def _stamp_switch(el: Switch, ctx: StampContext) -> None:
    v_ctrl = ctx.voltage(el.ctrl_p) - ctx.voltage(el.ctrl_n)
    ctx.system.stamp_conductance(el.node_a, el.node_b, el.conductance(v_ctrl))


def _stamp_mosfet(el: MosfetElement, ctx: StampContext) -> None:
    v_d = ctx.voltage(el.drain)
    v_g = ctx.voltage(el.gate)
    v_s = ctx.voltage(el.source)
    i0 = el.current(v_d, v_g, v_s)
    gd = (el.current(v_d + _FD_STEP, v_g, v_s) - i0) / _FD_STEP
    gm = (el.current(v_d, v_g + _FD_STEP, v_s) - i0) / _FD_STEP
    # Keep the stamp numerically tame: conductances must stay
    # non-negative on the diagonal direction; gmin guards cutoff.  The
    # source transconductance -(gm + gd) is folded into the
    # (out, in) = (d-s, g-s) difference stamps.
    gd = max(gd, 0.0) + ctx.gmin
    system = ctx.system
    system.stamp_conductance(el.drain, el.source, gd)
    system.stamp_transconductance(el.drain, el.source, el.gate, el.source, gm)
    # Residual current so the linear model matches i0 at the iterate.
    i_lin = gd * (v_d - v_s) + gm * (v_g - v_s)
    system.stamp_current(el.drain, el.source, i0 - i_lin)


_STAMPS = {
    Resistor: _stamp_resistor,
    Capacitor: _stamp_capacitor,
    VoltageSource: _stamp_voltage_source,
    CurrentSource: _stamp_current_source,
    Diode: _stamp_diode,
    Switch: _stamp_switch,
    MosfetElement: _stamp_mosfet,
}


def stamp(element, ctx: StampContext) -> None:
    """Stamp ``element``'s companion model for the iterate in ``ctx``."""
    _STAMPS[type(element)](element, ctx)


def branch_current(el: Capacitor, ctx: StampContext, x_new) -> float:
    """Current a -> b of ``el`` at the accepted solution ``x_new``."""
    if ctx.dt is None:
        return 0.0
    index = ctx.system.system.index

    def v(vector, node):
        idx = index(node)
        return 0.0 if idx < 0 else float(vector[idx])

    v_new = v(x_new, el.node_a) - v(x_new, el.node_b)
    v_prev = ctx.voltage(el.node_a, previous=True) - ctx.voltage(
        el.node_b, previous=True
    )
    if ctx.integrator == "trap":
        i_prev = 0.0 if ctx.cap_state is None else ctx.cap_state.get(el.name, 0.0)
        return 2.0 * el.capacitance / ctx.dt * (v_new - v_prev) - i_prev
    return el.capacitance / ctx.dt * (v_new - v_prev)


# -- the plan interface ----------------------------------------------------


@dataclasses.dataclass
class _Point:
    ctx: StampContext
    extra_gmin: float


class OraclePlan:
    """Drop-in for :class:`~repro.spice.stampplan.StampPlan` that stamps
    every element into a fresh dense matrix on every iterate.

    The linear solve is always dense (``lu_solve_dense``); ``backend``
    is resolved and reported like the plan's so span tags and the
    ``spice.sparse.auto.*`` counters match.
    """

    def __init__(self, system: MnaSystem, *, backend: str = "dense") -> None:
        self.system = system
        self.backend = resolve_backend(backend, system.size)
        self.order = stamping_order(system.circuit)
        self.capacitors = [el for el in self.order if type(el) is Capacitor]

    def _cap_state(self, cap_state) -> Optional[Dict[str, float]]:
        """The plan's capacitor-order array as a name-keyed dict."""
        if cap_state is None:
            return None
        return {cap.name: float(i) for cap, i
                in zip(self.capacitors, cap_state)}

    def begin_point(self, *, t: float, dt: Optional[float] = None,
                    integrator: str = "be", cap_state=None,
                    x_history: Optional[np.ndarray] = None,
                    gmin: float = 1e-12, extra_gmin: float = 0.0,
                    source_scale: float = 1.0) -> _Point:
        ctx = StampContext(system=None, x=None, x_prev=x_history, dt=dt,
                           time=t, integrator=integrator,
                           cap_state=self._cap_state(cap_state), gmin=gmin,
                           source_scale=source_scale)
        return _Point(ctx, extra_gmin)

    def assemble(self, point: _Point, x: np.ndarray) -> Assembly:
        """Stamp every element at ``x`` into a fresh matrix and RHS."""
        assembly = Assembly(self.system)
        ctx = dataclasses.replace(point.ctx, system=assembly, x=x)
        for element in self.order:
            stamp(element, ctx)
        if point.extra_gmin > 0.0:
            for idx in range(len(self.system.node_index)):
                assembly.matrix[idx, idx] += point.extra_gmin
        return assembly

    def solve_iterate(self, point: _Point, x: np.ndarray) -> np.ndarray:
        assembly = self.assemble(point, x)
        try:
            return linalg.lu_solve_dense(assembly.matrix, assembly.rhs)
        except np.linalg.LinAlgError as exc:
            raise self.system.singular_error() from exc

    def capacitor_currents(self, x_new: np.ndarray, x_prev: np.ndarray,
                           dt: float, integrator: str,
                           cap_state=None) -> np.ndarray:
        ctx = StampContext(system=Assembly(self.system), x=x_new,
                           x_prev=x_prev, dt=dt, integrator=integrator,
                           cap_state=self._cap_state(cap_state))
        return np.array([branch_current(cap, ctx, x_new)
                         for cap in self.capacitors])


@contextlib.contextmanager
def oracle_plans():
    """Run the transient and DC solvers on :class:`OraclePlan`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.spice.transient.StampPlan", OraclePlan)
        patch.setattr("repro.spice.op.StampPlan", OraclePlan)
        yield
