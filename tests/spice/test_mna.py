"""Tests for the MNA unknown layout and the oracle's textbook stamps."""

import numpy as np
import pytest

from repro.errors import NetlistError, SimulationError
from repro.spice import Circuit, Resistor, StampPlan, VoltageSource, dc, solve_dc
from repro.spice.mna import MnaSystem

from tests.spice.oracle import Assembly, OraclePlan, StampContext


def divider():
    c = Circuit("t")
    c.add(VoltageSource("v1", "a", "0", dc(1.0)))
    c.add(Resistor("r1", "a", "b", 1e3))
    c.add(Resistor("r2", "b", "0", 1e3))
    return c


@pytest.fixture()
def system():
    return MnaSystem(divider())


@pytest.fixture()
def assembly(system):
    return Assembly(system)


class TestIndexing:
    def test_ground_is_minus_one(self, system):
        assert system.index("0") == -1

    def test_nodes_then_branches(self, system):
        assert system.index("a") == 0
        assert system.index("b") == 1
        assert system.branch("v1") == 2
        assert system.size == 3

    def test_unknown_node_raises(self, system):
        with pytest.raises(NetlistError):
            system.index("zz")

    def test_non_source_branch_raises(self, system):
        with pytest.raises(NetlistError):
            system.branch("r1")


class TestStamps:
    def test_conductance_stamp_symmetry(self, assembly):
        assembly.stamp_conductance("a", "b", 2.0)
        m = assembly.matrix
        assert m[0, 0] == 2.0 and m[1, 1] == 2.0
        assert m[0, 1] == -2.0 and m[1, 0] == -2.0

    def test_conductance_to_ground_only_diagonal(self, assembly):
        assembly.stamp_conductance("a", "0", 3.0)
        assert assembly.matrix[0, 0] == 3.0
        assert assembly.matrix[0, 1] == 0.0

    def test_current_stamp(self, assembly):
        assembly.stamp_current("a", "b", 1e-3)
        assert assembly.rhs[0] == -1e-3
        assert assembly.rhs[1] == 1e-3

    def test_voltage_source_stamp(self, system, assembly):
        assembly.stamp_voltage_source("v1", "a", "0", 1.0)
        br = system.branch("v1")
        assert assembly.matrix[0, br] == 1.0
        assert assembly.matrix[br, 0] == 1.0
        assert assembly.rhs[br] == 1.0

    def test_fresh_assembly_is_zero(self, system, assembly):
        assembly.stamp_conductance("a", "b", 2.0)
        fresh = Assembly(system)
        assert np.all(fresh.matrix == 0.0)
        assert np.all(fresh.rhs == 0.0)

    def test_transconductance_stamp(self, assembly):
        assembly.stamp_transconductance("a", "b", "b", "0", 0.5)
        # Current 0.5*V(b) flows a -> b.
        assert assembly.matrix[0, 1] == 0.5
        assert assembly.matrix[1, 1] == -0.5

    def test_divider_assembles_to_hand_built_matrix(self, system):
        """Oracle and plan both stamp the divider to the textbook
        matrix: two 1 kOhm conductances and the source's branch row."""
        g = 1.0 / 1e3
        expected = np.array([[g, -g, 1.0],
                             [-g, 2 * g, 0.0],
                             [1.0, 0.0, 0.0]])
        oracle = OraclePlan(system)
        stamped = oracle.assemble(oracle.begin_point(t=0.0), np.zeros(3))
        assert np.array_equal(stamped.matrix, expected)
        assert np.array_equal(stamped.rhs, [0.0, 0.0, 1.0])
        plan = StampPlan(system)
        values, rhs = plan._assemble(plan.begin_point(t=0.0), np.zeros(3))
        assert np.array_equal(values.reshape(3, 3), expected)
        assert np.array_equal(rhs, [0.0, 0.0, 1.0])

    def test_singular_solve_names_structural_suspects(self):
        # A second source across v1 closes a voltage-source loop: the
        # two branch rows are equal, whatever the gmin leak.
        circuit = divider()
        circuit.add(VoltageSource("v2", "a", "0", dc(1.0)))
        with pytest.raises(SimulationError) as excinfo:
            solve_dc(circuit)
        message = str(excinfo.value)
        assert "singular MNA matrix for circuit 't'" in message
        assert "structural suspects:" in message
        assert "[M205]" in message


class TestStampContext:
    def test_voltage_reads_iterate(self, assembly):
        x = np.array([1.0, 0.5, 0.0])
        ctx = StampContext(system=assembly, x=x)
        assert ctx.voltage("a") == 1.0
        assert ctx.voltage("b") == 0.5
        assert ctx.voltage("0") == 0.0

    def test_previous_requires_history(self, assembly):
        ctx = StampContext(system=assembly, x=np.zeros(3))
        with pytest.raises(SimulationError):
            ctx.voltage("a", previous=True)
