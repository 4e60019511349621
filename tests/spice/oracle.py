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
from typing import Optional

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

    ``x_prev`` is the solution at the previous accepted time point and
    ``dt`` is ``None`` for a DC solve.
    """

    system: Assembly
    x: np.ndarray
    x_prev: Optional[np.ndarray] = None
    dt: Optional[float] = None
    time: float = 0.0
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
    # Backward-Euler companion: conductance C/dt with its history current.
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

    def begin_point(self, *, t: float, dt: Optional[float] = None,
                    x_history: Optional[np.ndarray] = None,
                    gmin: float = 1e-12, extra_gmin: float = 0.0,
                    source_scale: float = 1.0) -> _Point:
        ctx = StampContext(system=None, x=None, x_prev=x_history, dt=dt,
                           time=t, gmin=gmin, source_scale=source_scale)
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


@contextlib.contextmanager
def oracle_plans():
    """Run the transient and DC solvers on :class:`OraclePlan`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.spice.transient.StampPlan", OraclePlan)
        patch.setattr("repro.spice.op.StampPlan", OraclePlan)
        yield
