"""Equivalence proof for the compiled stamp plan.

The contract is *bit-identity*: the compiled plan and the per-element
stamping oracle (``tests/spice/oracle.py``), each driven through the
same transient and DC loops, must produce exactly equal solution
matrices (``.data`` bytes, not ``allclose``) on every circuit,
including when the recovery ladder escalates (gmin stepping, substep
halving, source stepping) and on fault-injected refresh scenarios.
Any drift here means the compiled assembly changed numerical
behaviour, which its speed must never buy.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FastDramDesign, obs
from repro.array.localblock import build_localblock_read_circuit
from repro.errors import ConfigurationError, ConvergenceError
from repro.spice import (
    BatchTransientModel,
    Capacitor,
    Circuit,
    Diode,
    MosfetElement,
    Resistor,
    StampPlan,
    Switch,
    VoltageSource,
    dc,
    eval_model_batch,
    pulse,
    simulate_transient,
    solve_dc,
    stamping_order,
)
from repro.spice.mna import MnaSystem
from repro.spice.recovery import RUNGS, RecoveryConfig
from repro.tech.node import Polarity
from repro.units import ns, ps
from repro.variability.montecarlo import run_monte_carlo_resumable

from tests.spice.oracle import OraclePlan, oracle_plans
from tests.spice.test_recovery import GMIN_LADDER, stiff_diode_circuit

_T_STOP = 1.0 * ns  # past SA enable (0.7 ns) and buffer enable (0.9 ns)
_DT = 1.0 * ps


def localblock_circuit(stored_value=0, refresh_only=False):
    cell = FastDramDesign().cell()
    circuit = build_localblock_read_circuit(cell, cells_per_lbl=16,
                                            stored_value=stored_value,
                                            refresh_only=refresh_only)
    initial = {"pre_rail": cell.bitline_precharge,
               "sa_rail": cell.bitline_precharge,
               "gbl_gnd": 0.3, "prech_ctl": 1.2}
    return circuit, initial


def on_plan_and_oracle(solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` on the plan, then on the oracle."""
    fast = solve(*args, **kwargs)
    with oracle_plans():
        oracle = solve(*args, **kwargs)
    return fast, oracle


def both_paths(circuit, initial, **kwargs):
    return on_plan_and_oracle(simulate_transient, circuit, t_stop=_T_STOP,
                              dt=_DT, initial_voltages=initial, **kwargs)


def same_bits(a, b):
    return a.data.tobytes() == b.data.tobytes()


class TestTransientBitIdentity:
    def test_localblock_read_is_bit_identical(self):
        fast, oracle = both_paths(*localblock_circuit(stored_value=0))
        assert same_bits(fast, oracle)
        assert np.array_equal(fast.time, oracle.time)
        assert fast.node_index == oracle.node_index

    def test_localblock_read_of_one_is_bit_identical(self):
        fast, oracle = both_paths(*localblock_circuit(stored_value=1))
        assert same_bits(fast, oracle)

    def test_fault_injected_refresh_is_bit_identical(self):
        """Localised refresh (GBL floating) of a weak cell: the stored
        '1' has decayed to mid-rail, the fault-injection scenario the
        refresh path exists to repair."""
        circuit, initial = localblock_circuit(stored_value=1,
                                              refresh_only=True)
        initial = dict(initial, cell=0.45)  # decayed weak-cell level
        fast, oracle = both_paths(circuit, initial)
        assert same_bits(fast, oracle)

    def test_capacitor_terminal_layouts_are_bit_identical(self):
        """Capacitor history currents with ground on either terminal and
        on neither (the local block grounds only ``node_b``)."""
        circuit = Circuit("c-bridge")
        circuit.add(VoltageSource("v1", "a", "0",
                                  pulse(0.0, 1.0, 10 * ps, 5 * ps, 1 * ns)))
        circuit.add(Resistor("r1", "a", "b", 1e3))
        circuit.add(Resistor("r2", "b", "0", 1e3))
        for name, node_a, node_b, farads in (("c1", "a", "0", 1e-15),
                                             ("c2", "0", "b", 2e-15),
                                             ("c3", "a", "b", 3e-15)):
            circuit.add(Capacitor(name, node_a, node_b, farads))
        fast, oracle = on_plan_and_oracle(
            simulate_transient, circuit, t_stop=50 * ps, dt=_DT)
        assert same_bits(fast, oracle)
        assert fast.voltage("b")[-1] > 0.0  # the bridge actually moved

    def test_stiff_diode_under_gmin_ladder_is_bit_identical(self):
        """The recovery ladder escalates to gmin stepping — the exact
        path that rewrites the linear system mid-solve."""
        recovery = RecoveryConfig(max_newton=25, enable_damping=False,
                                  enable_substep=False, enable_source=False,
                                  gmin_ladder=GMIN_LADDER)
        fast, oracle = on_plan_and_oracle(
            simulate_transient, stiff_diode_circuit(), t_stop=1e-9,
            dt=1e-10, initial_voltages={"in": 5.0}, recovery=recovery)
        assert same_bits(fast, oracle)

    def test_substep_halving_walks_identically(self):
        """Substep halving changes dt (and so the linear base); with
        gmin and source disabled the ladder is exhausted — plan and
        oracle must fail on the same rung with the same transcript."""
        recovery = RecoveryConfig(max_newton=25, enable_gmin=False,
                                  enable_source=False)
        circuit = stiff_diode_circuit()

        def transcript():
            with pytest.raises(ConvergenceError) as excinfo:
                simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                   initial_voltages={"in": 5.0},
                                   recovery=recovery)
            return [(a.rung, a.detail, a.converged)
                    for a in excinfo.value.recovery.attempts]

        fast, oracle = on_plan_and_oracle(transcript)
        assert fast == oracle
        assert fast[-1][0] == "substep"

    def test_every_ladder_rung_is_bit_identical(self, monkeypatch):
        """A starved Newton budget on a hard diode walks damping,
        substeps and gmin stepping before source stepping converges."""
        from repro.spice import transient

        walks = []
        monkeypatch.setattr(transient, "note_recovery_success",
                            lambda report: walks.append(report.rungs_tried()))
        circuit = Circuit("rc-diode")
        circuit.add(VoltageSource("v1", "in", "0", dc(5.0)))
        circuit.add(Resistor("r1", "in", "d", 100.0))
        circuit.add(Diode("d1", "d", "0"))
        circuit.add(Capacitor("cd", "d", "0", 1e-12))
        fast, oracle = on_plan_and_oracle(
            simulate_transient, circuit, t_stop=5e-10, dt=1e-10,
            recovery=RecoveryConfig(max_newton=8))
        assert RUNGS in walks
        assert walks[:len(walks) // 2] == walks[len(walks) // 2:]
        assert same_bits(fast, oracle)


class TestDcEquivalence:
    def test_localblock_dc_is_identical(self):
        circuit, _initial = localblock_circuit()
        fast, oracle = on_plan_and_oracle(solve_dc, circuit)
        assert fast == oracle

    def test_starved_newton_dc_recovers_identically(self):
        """A 15-iteration Newton budget escalates the DC ladder to
        source stepping — the rung that rescales the source vector."""
        recovery = RecoveryConfig(max_newton=15, gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit(v_t=0.02)
        with obs.instrumented() as registry:
            fast = solve_dc(circuit, recovery=recovery)
            counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.source"] == 1  # the ladder ran
        with oracle_plans():
            assert fast == solve_dc(circuit, recovery=recovery)


def driven_terminals(element):
    """The terminals of ``element`` that are not ground."""
    return [node for node in element.terminals() if node != "0"]


def driven_circuit(element):
    """``element`` alone, each terminal off ground driven by a source."""
    circuit = Circuit(f"single-{element.name}")
    for node in driven_terminals(element):
        circuit.add(VoltageSource(f"v_{node}", node, "0", dc(0.0)))
    circuit.add(element)
    return circuit


def assert_assembly_matches_oracle(element, levels):
    """The plan's assembled matrix and RHS equal the oracle's
    per-element stamps byte for byte at every combination of terminal
    voltages drawn from ``levels`` (one sequence per terminal off
    ground).  The plan stores the dense matrix in LAPACK's column-major
    order, so its buffer viewed row-major is the transpose."""
    system = MnaSystem(driven_circuit(element))
    plan, oracle = StampPlan(system), OraclePlan(system)
    point, oracle_point = plan.begin_point(t=0.0), oracle.begin_point(t=0.0)
    nodes = [system.index(node) for node in driven_terminals(element)]
    n = system.size
    for voltages in itertools.product(*levels):
        x = np.zeros(n)
        x[nodes] = voltages
        values, rhs = plan._assemble(point, x)
        stamped = oracle.assemble(oracle_point, x)
        assert values.reshape(n, n).T.tobytes() == stamped.matrix.tobytes()
        assert rhs.tobytes() == stamped.rhs.tobytes()


_GRID = np.linspace(-0.2, 1.4, 9)


class TestCompiledDevices:
    @pytest.mark.parametrize("name, polarity", [
        ("m_sa_n1", Polarity.NMOS), ("m_sa_p1", Polarity.PMOS)])
    def test_assembly_matches_element_stamp(self, name, polarity):
        """Over the terminal grid, reverse conduction (drain below
        source) included, and with the source on ground, which reads
        the ground slot the fillers append to the iterate."""
        source, _initial = localblock_circuit()
        element = next(el for el in source.elements if el.name == name)
        assert element.device.polarity is polarity
        device = MosfetElement(name, "d", "g", "s", element.device)
        assert_assembly_matches_oracle(device, (_GRID, _GRID, (0.0, 0.3, 1.2)))
        grounded = MosfetElement(name, "d", "g", "0", element.device)
        assert_assembly_matches_oracle(grounded, (_GRID, _GRID))

    def test_diode_assembly_matches_element_stamp(self):
        """Both terminals off ground, forward bias past the clamp."""
        diode = Diode("d1", "a", "c", v_t=0.026, v_clip=0.8)
        assert_assembly_matches_oracle(diode, (_GRID, _GRID))

    def test_switch_assembly_matches_element_stamp(self):
        """Control voltages through both logistic clamps, and with
        ``ctrl_n`` on ground as in every switch of the local block."""
        switch = Switch("s1", "a", "b", "p", "n")
        assert_assembly_matches_oracle(
            switch, ((0.0, 0.7), (0.0, 0.7), _GRID, _GRID))
        grounded = Switch("s1", "a", "b", "p", "0")
        assert_assembly_matches_oracle(
            grounded, ((0.0, 0.7), (0.0, 0.7), _GRID))


class _PythonDiode(Diode):
    """A Diode subclass: a type the stamp-plan compiler does not know."""


def divider(diode_cls):
    circuit = Circuit("divider")
    circuit.add(VoltageSource("v1", "in", "0", dc(2.0)))
    circuit.add(Resistor("r1", "in", "mid", 10e3))
    circuit.add(diode_cls("d1", "mid", "0", v_t=0.026, v_clip=0.8))
    circuit.add(Capacitor("c1", "mid", "0", 1e-12))
    return circuit


class _PythonDiodeModel(BatchTransientModel):
    """A batchable MC model whose every circuit carries a _PythonDiode."""

    t_stop = 1e-10
    dt = 1e-11

    def draw(self, rng):
        return float(rng.uniform())

    def build(self, params):
        return divider(_PythonDiode)

    def measure(self, result, params):
        return float(result.final_voltage("mid"))


class TestUnknownElementTypes:
    def test_plan_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_transient(divider(_PythonDiode), t_stop=1e-9,
                               dt=1e-11)
        message = str(excinfo.value)
        assert "_PythonDiode 'd1' is not a supported element type" in message
        for supported in ("Resistor", "Capacitor", "VoltageSource",
                          "CurrentSource", "Diode", "Switch",
                          "MosfetElement"):
            assert supported in message
        assert "stamp_plan" not in message

    def test_batched_stack_fails_each_sample(self):
        """Each sample fails with the plan's error on its own, at batch
        1 and 4, instead of the whole chunk failing."""
        model = _PythonDiodeModel()
        rngs = [np.random.default_rng(i) for i in range(4)]
        outcomes = eval_model_batch(model, rngs)
        assert all(not ok and isinstance(err, ConfigurationError)
                   for ok, err in outcomes)
        errors = []
        for batch in (1, 4):
            outcome = run_monte_carlo_resumable(model, 8, seed=3,
                                                batch=batch)
            assert (outcome.completed, outcome.failed) == (0, 8)
            errors.append(outcome.errors)
        assert errors[0] == errors[1]
        assert all("_PythonDiode" in message
                   for message in errors[0].values())


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call bumps the returned counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneFactorizationPerIterate:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_localblock_factors_once_per_iterate(self, monkeypatch,
                                                 backend):
        from repro.spice import linalg
        from repro.spice.sparse import SparseContext
        owner, name = ((linalg, "solve_rows_t_into") if backend == "dense"
                       else (SparseContext, "factorize"))
        iterates = count_calls(monkeypatch, StampPlan, "solve_iterate")
        factors = count_calls(monkeypatch, owner, name)
        circuit, initial = localblock_circuit()
        simulate_transient(circuit, t_stop=0.05 * ns, dt=_DT,
                           initial_voltages=initial, backend=backend)
        assert factors[0] == iterates[0] >= 50


class TestOracleSwap:
    def test_oracle_replaces_the_plan_in_both_solvers(self, monkeypatch):
        """Inside ``oracle_plans`` every iterate of the transient and
        the DC loop runs on the oracle, none on the compiled plan."""
        plan_calls = count_calls(monkeypatch, StampPlan, "solve_iterate")
        oracle_calls = count_calls(monkeypatch, OraclePlan, "solve_iterate")
        circuit = stiff_diode_circuit(v_t=0.05)
        with oracle_plans():
            simulate_transient(circuit, t_stop=1e-10, dt=1e-11,
                               initial_voltages={"in": 5.0})
            after_transient = oracle_calls[0]
            solve_dc(circuit)
        assert 0 < after_transient < oracle_calls[0]
        assert plan_calls[0] == 0


class TestNewtonTelemetry:
    def test_newton_iteration_histogram_is_emitted(self):
        circuit, initial = localblock_circuit()
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=0.05 * ns, dt=_DT,
                               initial_voltages=initial)
            snapshot = registry.snapshot()
        histogram = snapshot["histograms"]["spice.newton.iterations"]
        assert histogram["count"] == 50  # one observation per timestep


class TestStampingOrder:
    def test_order_groups_linear_elements_then_the_rest(self):
        """Linear elements come grouped by type (circuit order within a
        group), nonlinear elements trail in circuit order — the
        documented canonical order the plan and the oracle share."""
        circuit, _initial = localblock_circuit()
        order = stamping_order(circuit)
        assert sorted(el.name for el in order) == sorted(
            el.name for el in circuit.elements)
        kinds = [type(el) for el in order]
        first_nonlinear = min(
            i for i, k in enumerate(kinds) if k is MosfetElement)
        assert all(k is not Resistor and k is not Capacitor
                   for k in kinds[first_nonlinear:])
        circuit_pos = {el.name: i for i, el in enumerate(circuit.elements)}
        for kind in (Capacitor, MosfetElement):
            positions = [circuit_pos[el.name] for el in order
                         if type(el) is kind]
            assert positions == sorted(positions)

    def test_plan_holds_its_system(self):
        circuit, _initial = localblock_circuit()
        system = MnaSystem(circuit)
        assert StampPlan(system).system is system


class TestPropertyEquivalence:
    @given(resistance=st.floats(min_value=1e3, max_value=1e7),
           v_t=st.floats(min_value=0.02, max_value=0.2),
           supply=st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_dc_solution_identical_for_random_diode_dividers(
            self, resistance, v_t, supply):
        circuit = Circuit("prop-divider")
        circuit.add(VoltageSource("v1", "in", "0", dc(supply)))
        circuit.add(Resistor("r1", "in", "d", resistance))
        circuit.add(Diode("d1", "d", "0", v_t=v_t, v_clip=0.8))
        fast, oracle = on_plan_and_oracle(solve_dc, circuit)
        assert fast == oracle
