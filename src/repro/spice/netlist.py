"""Circuit netlist container.

A :class:`Circuit` is a bag of named nodes and elements.  Node names are
plain strings; the ground node is ``"0"`` (also exported as
:data:`GROUND`).  Elements are added through :meth:`Circuit.add` and are
identified by unique names, so measurements can refer to them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import NetlistError

GROUND = "0"


class Circuit:
    """A flat netlist of circuit elements.

    >>> from repro.spice import Circuit, Resistor, VoltageSource, dc
    >>> c = Circuit("divider")
    >>> _ = c.add(VoltageSource("vin", "in", "0", dc(1.0)))
    >>> _ = c.add(Resistor("r1", "in", "mid", 1e3))
    >>> _ = c.add(Resistor("r2", "mid", "0", 1e3))
    >>> sorted(c.nodes())
    ['in', 'mid']
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._elements: Dict[str, "CircuitElement"] = {}

    # -- construction --------------------------------------------------------

    def add(self, element: "CircuitElement") -> "CircuitElement":
        """Add ``element``; returns it so construction can chain."""
        if element.name in self._elements:
            raise NetlistError(
                f"duplicate element name {element.name!r} in circuit {self.name!r}"
            )
        self._elements[element.name] = element
        return element

    # -- introspection --------------------------------------------------------

    @property
    def elements(self) -> List["CircuitElement"]:
        return list(self._elements.values())

    def element(self, name: str) -> "CircuitElement":
        try:
            return self._elements[name]
        except KeyError as exc:
            raise NetlistError(f"no element named {name!r}") from exc

    def nodes(self) -> List[str]:
        """All non-ground node names, in first-use order."""
        seen: Dict[str, None] = {}
        for element in self._elements.values():
            for node in element.terminals():
                if node != GROUND:
                    seen.setdefault(node)
        return list(seen)

    def validate(self, strict: bool = False) -> None:
        """Check the netlist is simulatable.

        Delegates to the model checker
        (:func:`repro.analysis.model.check_circuit`) and raises
        :class:`NetlistError` carrying *all* structural defects at once
        (``exc.diagnostics``) instead of stopping at the first.

        By default only the historically fatal defects raise (empty
        circuit, no ground connection); ``strict=True`` also raises for
        every error-severity finding the checker reports (floating
        nodes, voltage-source loops) and is what ``repro check`` uses.
        Warnings (dangling nodes, capacitor-to-nowhere patterns) never
        raise — they are reported through the checker CLI.
        """
        from repro.analysis.diagnostics import Severity, format_diagnostics
        from repro.analysis.model import LEGACY_VALIDATE_RULES, check_circuit

        diagnostics = check_circuit(self)
        fatal = [d for d in diagnostics
                 if d.rule in LEGACY_VALIDATE_RULES
                 or (strict and d.severity is Severity.ERROR)]
        if fatal:
            raise NetlistError(
                f"circuit {self.name!r} failed validation:\n"
                f"{format_diagnostics(fatal)}",
                diagnostics=diagnostics)


class CircuitElement:
    """Base class for all circuit elements.

    Subclasses define ``terminals()``, ``terminal_roles()`` and:

    * ``is_source()`` — whether the element introduces a branch-current
      unknown (voltage sources do; see :class:`repro.spice.mna.MnaSystem`).
    * ``is_nonlinear()`` — whether the element needs re-linearising every
      Newton iterate.

    The solver does not ask an element to stamp itself:
    :class:`repro.spice.stampplan.StampPlan` compiles the seven built-in
    element types and rejects any other.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name

    def terminals(self) -> Iterable[str]:
        raise NotImplementedError

    def terminal_roles(self) -> List[Tuple[str, str]]:
        """How each terminal couples into the MNA system.

        Each terminal is one of:

        * ``"conductive"`` — stamps conductance (resistors, channels);
        * ``"capacitive"`` — stamps a companion conductance in transient
          (capacitors);
        * ``"constraint"`` — pins the node voltage through a branch
          equation (voltage sources);
        * ``"injection"`` — injects current without conductance
          (current sources);
        * ``"sense"`` — reads the node voltage without stamping it
          (MOSFET gates, switch control inputs).

        The model checker (:mod:`repro.analysis.model`) uses this to
        predict singular matrices before a solve.  The default declares
        every terminal conductive, the safe assumption for resistive
        elements.
        """
        return [(node, "conductive") for node in self.terminals()]

    def is_source(self) -> bool:
        return False

    def is_nonlinear(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nodes = ",".join(self.terminals())
        return f"<{type(self).__name__} {self.name} ({nodes})>"
