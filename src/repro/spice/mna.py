"""Modified nodal analysis assembly.

The MNA unknown vector stacks the non-ground node voltages followed by
one branch current per voltage source.  Elements add their contribution
through the small stamping API of :class:`MnaSystem`; nonlinear elements
are re-stamped on every Newton iterate with their linearised companion
model.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional

import numpy as np

from repro.errors import NetlistError, SimulationError
from repro.spice.netlist import GROUND, Circuit


class MnaSystem:
    """The dense MNA matrix/RHS under assembly for one solve."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.node_index: Dict[str, int] = {
            node: i for i, node in enumerate(circuit.nodes())
        }
        self.branch_index: Dict[str, int] = {}
        offset = len(self.node_index)
        for element in circuit.elements:
            if element.is_source():
                self.branch_index[element.name] = offset
                offset += 1
        self.size = offset
        self.rhs = np.zeros(self.size)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix under assembly, allocated on first use.

        Only the per-element stamping loop writes it; compiled stamp
        plans keep their own value arrays, so a batch of B systems
        never holds B unused ``n x n`` matrices.
        """
        return np.zeros((self.size, self.size))

    # -- index helpers ---------------------------------------------------------

    def index(self, node: str) -> int:
        """Index of ``node`` in the unknown vector; -1 for ground."""
        if node == GROUND:
            return -1
        try:
            return self.node_index[node]
        except KeyError as exc:
            raise NetlistError(f"unknown node {node!r}") from exc

    def branch(self, source_name: str) -> int:
        try:
            return self.branch_index[source_name]
        except KeyError as exc:
            raise NetlistError(f"{source_name!r} is not a source element") from exc

    def reset(self) -> None:
        self.matrix[:] = 0.0
        self.rhs[:] = 0.0

    # -- stamping primitives -----------------------------------------------------

    def stamp_conductance(self, node_a: str, node_b: str, g: float) -> None:
        """Stamp conductance ``g`` between two nodes."""
        ia, ib = self.index(node_a), self.index(node_b)
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
        oa, ob = self.index(out_a), self.index(out_b)
        ia, ib = self.index(in_a), self.index(in_b)
        for out_idx, sign_out in ((oa, +1.0), (ob, -1.0)):
            if out_idx < 0:
                continue
            if ia >= 0:
                self.matrix[out_idx, ia] += sign_out * gm
            if ib >= 0:
                self.matrix[out_idx, ib] -= sign_out * gm

    def stamp_current(self, node_from: str, node_to: str, current: float) -> None:
        """Stamp an independent current ``current`` flowing from -> to."""
        i_from, i_to = self.index(node_from), self.index(node_to)
        if i_from >= 0:
            self.rhs[i_from] -= current
        if i_to >= 0:
            self.rhs[i_to] += current

    def stamp_voltage_source(self, source_name: str, node_p: str,
                             node_n: str, voltage: float) -> None:
        """Stamp a voltage constraint; branch current flows p -> n inside."""
        br = self.branch(source_name)
        ip, in_ = self.index(node_p), self.index(node_n)
        if ip >= 0:
            self.matrix[ip, br] += 1.0
            self.matrix[br, ip] += 1.0
        if in_ >= 0:
            self.matrix[in_, br] -= 1.0
            self.matrix[br, in_] -= 1.0
        self.rhs[br] += voltage

    def solve(self) -> np.ndarray:
        """Solve the assembled system; raises on singular matrices.

        Routes through the shared LU kernel of
        :mod:`repro.spice.linalg` — the same kernel the compiled
        :class:`~repro.spice.stampplan.StampPlan` fast path uses, which
        is what keeps both paths bit-identical.  On a singular matrix
        the model checker (:mod:`repro.analysis.model`) is consulted so
        the error names the structural suspects (floating nodes, source
        loops) instead of leaving the user to bisect the netlist.
        """
        from repro.spice import linalg

        try:
            return linalg.lu_solve_dense(self.matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise self.singular_error() from exc

    def singular_error(self) -> SimulationError:
        """The enriched error every singular solve of this system raises."""
        message = (f"singular MNA matrix for circuit "
                   f"{self.circuit.name!r}; check for floating nodes")
        suspects = self._structural_suspects()
        if suspects:
            message += "\nstructural suspects:\n" + suspects
        return SimulationError(message)

    def _structural_suspects(self) -> str:
        """Model-checker findings worth naming in a singular-solve error."""
        try:
            from repro.analysis.model import check_circuit
            findings = check_circuit(self.circuit)
        except Exception:  # pragma: no cover - diagnostics must not mask
            return ""
        return "\n".join(f"  [{d.rule}] {d.message}" for d in findings)


@dataclasses.dataclass
class StampContext:
    """Everything an element may need while stamping one Newton iterate.

    Attributes
    ----------
    x:
        Current Newton iterate of the unknown vector.
    x_prev:
        Solution at the previous accepted time point (transient only).
    dt:
        Time step, or ``None`` for a DC solve.
    time:
        Absolute time of the point being solved (end of the step).
    integrator:
        ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
    cap_state:
        Per-capacitor branch currents at the previous time point, used by
        the trapezoidal companion model.  Owned by the transient engine.
    gmin:
        Extra conductance to ground stamped by nonlinear elements for
        convergence (gmin stepping during DC).
    source_scale:
        Multiplier applied by independent sources to their stamped
        value.  1.0 except while the recovery ladder's source-stepping
        rung ramps the sources up from a solvable fraction.
    """

    system: MnaSystem
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
        idx = self.system.index(node)
        if idx < 0:
            return 0.0
        vector = self.x_prev if previous else self.x
        if vector is None:
            raise SimulationError("no previous solution available")
        return float(vector[idx])
