"""The inverter ring oscillator: a transistor-level gate-delay anchor.

:func:`build_ring_oscillator` chains :func:`add_inverter` stages built
from the :mod:`repro.tech` device cards.  Its period cross-checks the
analytic inverter delay that the architecture timing model scales every
decoder stage by (see ``tests/spice/test_stdcells.py``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.spice.elements import Capacitor, VoltageSource, dc
from repro.spice.mosfet import MosfetElement
from repro.spice.netlist import Circuit
from repro.tech.node import Polarity, TechnologyNode, VtFlavor
from repro.tech.transistor import Mosfet


def add_inverter(circuit: Circuit, node: TechnologyNode, name: str,
                 input_node: str, output_node: str,
                 supply_node: str = "vdd",
                 nmos_units: float = 2.0, pmos_units: float = 4.0,
                 flavor: VtFlavor = VtFlavor.SVT) -> None:
    """A static CMOS inverter with explicit output self-loading.

    Its elements are named ``<name>.mn``, ``<name>.mp``, ``<name>.cin``
    and ``<name>.cself``.  The MOSFET element's gate is currentless, so
    the inverter's input capacitance is stamped as an explicit
    capacitor — keeping transient loading physical when inverters are
    chained.
    """
    nmos = Mosfet(node, Polarity.NMOS, flavor,
                  width=node.width_units(nmos_units))
    pmos = Mosfet(node, Polarity.PMOS, flavor,
                  width=node.width_units(pmos_units))
    circuit.add(MosfetElement(f"{name}.mn", output_node, input_node, "0",
                              nmos))
    circuit.add(MosfetElement(f"{name}.mp", output_node, input_node,
                              supply_node, pmos))
    c_in = nmos.gate_capacitance() + pmos.gate_capacitance()
    circuit.add(Capacitor(f"{name}.cin", input_node, "0", c_in))
    c_self = nmos.junction_capacitance() + pmos.junction_capacitance()
    circuit.add(Capacitor(f"{name}.cself", output_node, "0", c_self))


def build_ring_oscillator(node: TechnologyNode, stages: int = 5,
                          load_per_stage: float = 0.0) -> Circuit:
    """An odd-stage inverter ring with a supply, ready to simulate.

    The oscillation period is ``2 * stages`` stage delays; measuring it
    gives a transistor-level FO1-class delay to cross-check the analytic
    timing model against.
    """
    if stages < 3 or stages % 2 == 0:
        raise ConfigurationError("ring needs an odd stage count >= 3")
    circuit = Circuit(f"ring-{stages}")
    circuit.add(VoltageSource("vdd", "vdd", "0", dc(node.vdd)))
    for stage in range(stages):
        out = f"ring{(stage + 1) % stages}"
        add_inverter(circuit, node, f"inv{stage}", f"ring{stage}", out)
        if load_per_stage > 0:
            circuit.add(Capacitor(f"cl{stage}", out, "0", load_per_stage))
    return circuit
