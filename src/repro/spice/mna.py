"""Modified nodal analysis unknown layout.

The MNA unknown vector stacks the non-ground node voltages followed by
one branch current per voltage source.  :class:`MnaSystem` fixes that
layout for one circuit; the compiled
:class:`~repro.spice.stampplan.StampPlan` assembles and solves the
linearised system on it every Newton iterate.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import NetlistError, SimulationError
from repro.spice.netlist import GROUND, Circuit


class MnaSystem:
    """The MNA unknown layout of one circuit: node and branch indexes."""

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

    def singular_error(self) -> SimulationError:
        """The enriched error every singular solve of this system raises.

        The model checker (:mod:`repro.analysis.model`) is consulted so
        the error names the structural suspects (floating nodes, source
        loops) instead of leaving the user to bisect the netlist.
        """
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
