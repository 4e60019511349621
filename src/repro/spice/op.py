"""DC operating-point solver.

Newton iteration with voltage-update damping and gmin stepping: the
solve starts with a large leak conductance to ground at every node
(which makes even pathological circuits solvable), converges, then
relaxes the leak decade by decade, warm-starting each stage from the
previous solution.

When the gmin walk itself fails, the solver escalates through the
recovery ladder of :mod:`repro.spice.recovery`: stronger damping, then
source stepping (ramping the independent sources from a solvable
fraction up to 100 %), recording every attempt in a
:class:`~repro.spice.recovery.RecoveryReport`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.recovery import (DEFAULT_RECOVERY, RecoveryConfig,
                                  RecoveryReport, note_recovery_success)
from repro.spice.stampplan import StampPlan

_MAX_NEWTON = 200
_V_TOL = 1e-9
_DAMP_LIMIT = 0.3  # volts per Newton update


def _newton_solve(plan: StampPlan, x0: np.ndarray, gmin: float,
                  time: float, max_newton: Optional[int] = None,
                  damp_limit: float = _DAMP_LIMIT,
                  source_scale: float = 1.0) -> np.ndarray:
    x = x0.copy()
    n_nodes = len(plan.system.node_index)
    budget = _MAX_NEWTON if max_newton is None else max_newton
    # gmin doubles as the per-node leak: the base matrix carries the
    # capacitor-gmin stamps and extra_gmin adds the diagonal leak that
    # keeps the matrix non-singular.
    point = plan.begin_point(t=time, dt=None, gmin=gmin, extra_gmin=gmin,
                             source_scale=source_scale)
    for _iteration in range(budget):
        x_new = plan.solve_iterate(point, x)
        delta = x_new - x
        # Damp node-voltage updates only (branch currents move freely).
        v_delta = delta[:n_nodes]
        max_step = np.abs(v_delta).max() if n_nodes else 0.0
        if max_step > damp_limit:
            delta = delta * (damp_limit / max_step)
        x = x + delta
        if max_step < _V_TOL:
            return x
    raise ConvergenceError(
        f"DC Newton failed to converge for circuit "
        f"{plan.system.circuit.name!r} (gmin={gmin:g})",
        iterations=budget,
    )


def _gmin_walk(plan: StampPlan, x0: np.ndarray, time: float,
               config: RecoveryConfig, damp_limit: float = _DAMP_LIMIT,
               source_scale: float = 1.0) -> np.ndarray:
    """The decade-by-decade gmin relaxation, warm-started throughout."""
    x = x0
    for gmin in config.gmin_ladder:
        x = _newton_solve(plan, x, gmin, time,
                          max_newton=config.max_newton,
                          damp_limit=damp_limit,
                          source_scale=source_scale)
    return x


def solve_dc(circuit: Circuit, time: float = 0.0,
             initial_guess: Optional[Dict[str, float]] = None,
             recovery: Optional[RecoveryConfig] = None,
             backend: str = "auto") -> Dict[str, float]:
    """Solve the DC operating point; returns node-name -> voltage.

    ``time`` selects the value of time-dependent sources (useful to find
    the precharged state of a memory circuit at t=0).  On Newton
    failure the solver escalates deterministically (stronger damping,
    then source stepping); if every rung fails, the raised
    :class:`~repro.errors.ConvergenceError` carries the full
    :class:`~repro.spice.recovery.RecoveryReport` as ``.recovery``.

    ``backend`` selects the stamp plan's linear kernel (``"dense"``,
    ``"sparse"`` or ``"auto"``), exactly as in
    :func:`repro.spice.transient.simulate_transient`.

    ``initial_guess`` only seeds Newton; it does not select a state of
    a bistable circuit (a latch, an SRAM cell), because the gmin walk
    starts from a strong leak at every node and erases it: settle such
    a circuit with a transient instead.
    """
    if recovery is None:
        recovery = DEFAULT_RECOVERY
    system = MnaSystem(circuit)
    plan = StampPlan(system, backend=backend)
    x0 = np.zeros(system.size)
    if initial_guess:
        for node, voltage in initial_guess.items():
            idx = system.index(node)
            if idx >= 0:
                x0[idx] = voltage

    report = RecoveryReport(circuit=circuit.name, time=None)
    last_error: ConvergenceError | None = None

    def finish(x: np.ndarray) -> Dict[str, float]:
        note_recovery_success(report)
        return {node: float(x[idx])
                for node, idx in system.node_index.items()}

    # Rung 0: the standard gmin walk (the solver's normal operation).
    try:
        x = _gmin_walk(plan, x0, time, recovery)
    except ConvergenceError as exc:
        last_error = exc
        report.record("newton", "standard gmin walk", converged=False)
    else:
        report.record("newton", "standard gmin walk", converged=True)
        return finish(x)

    # Rung 1: stronger damping (tighter per-iteration voltage step).
    if recovery.enable_damping:
        for factor in recovery.damping_factors:
            limit = _DAMP_LIMIT * factor
            try:
                x = _gmin_walk(plan, x0, time, recovery, damp_limit=limit)
            except ConvergenceError as exc:
                last_error = exc
                report.record("damping", f"damp_limit={limit:g}V",
                              converged=False)
            else:
                report.record("damping", f"damp_limit={limit:g}V",
                              converged=True)
                return finish(x)

    # Rung 2: source stepping — each ramp stage runs the full gmin walk
    # warm-started from the previous stage's solution.
    if recovery.enable_source:
        x = x0
        try:
            for alpha in recovery.source_ladder:
                x = _gmin_walk(plan, x, time, recovery, source_scale=alpha)
                report.record("source", f"sources={100 * alpha:g}%",
                              converged=True)
            return finish(x)
        except ConvergenceError as exc:
            last_error = exc
            report.record("source", f"sources={100 * alpha:g}%",
                          converged=False)

    raise ConvergenceError(
        f"DC solve failed for circuit {circuit.name!r} and every "
        "recovery rung was exhausted",
        iterations=last_error.iterations if last_error else None,
        recovery=report,
    )
