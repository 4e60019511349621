"""Equivalence proof for the compiled stamp-plan fast path.

The contract is *bit-identity*: the compiled plan and the legacy
per-element stamping loop must produce exactly equal solution matrices
(``np.array_equal``, not ``allclose``) on every circuit, including when
the recovery ladder escalates (gmin stepping, substep halving) and on
fault-injected refresh scenarios.  Any drift here means the fast path
changed numerical behaviour, which the benchmark speedup must never
buy.
"""

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
    VoltageSource,
    dc,
    eval_model_batch,
    simulate_transient,
    solve_dc,
    stamping_order,
)
from repro.spice.mna import MnaSystem, StampContext
from repro.spice.recovery import RecoveryConfig
from repro.tech.node import Polarity
from repro.units import ns, ps
from repro.variability.montecarlo import run_monte_carlo_resumable

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


def both_paths(circuit, initial, **kwargs):
    fast = simulate_transient(circuit, t_stop=_T_STOP, dt=_DT,
                              initial_voltages=initial, stamp_plan=True,
                              **kwargs)
    legacy = simulate_transient(circuit, t_stop=_T_STOP, dt=_DT,
                                initial_voltages=initial, stamp_plan=False,
                                **kwargs)
    return fast, legacy


class TestTransientBitIdentity:
    def test_localblock_read_is_bit_identical(self):
        fast, legacy = both_paths(*localblock_circuit(stored_value=0))
        assert np.array_equal(fast.data, legacy.data)
        assert np.array_equal(fast.time, legacy.time)
        assert fast.node_index == legacy.node_index

    def test_localblock_read_of_one_is_bit_identical(self):
        fast, legacy = both_paths(*localblock_circuit(stored_value=1))
        assert np.array_equal(fast.data, legacy.data)

    def test_fault_injected_refresh_is_bit_identical(self):
        """Localised refresh (GBL floating) of a weak cell: the stored
        '1' has decayed to mid-rail, the fault-injection scenario the
        refresh path exists to repair."""
        circuit, initial = localblock_circuit(stored_value=1,
                                              refresh_only=True)
        initial = dict(initial, cell=0.45)  # decayed weak-cell level
        fast, legacy = both_paths(circuit, initial)
        assert np.array_equal(fast.data, legacy.data)

    def test_stiff_diode_under_gmin_ladder_is_bit_identical(self):
        """The recovery ladder escalates to gmin stepping — the exact
        path that rewrites the linear system mid-solve."""
        recovery = RecoveryConfig(max_newton=25, enable_damping=False,
                                  enable_substep=False, enable_source=False,
                                  gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit()
        fast = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                  initial_voltages={"in": 5.0},
                                  recovery=recovery, stamp_plan=True)
        legacy = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                    initial_voltages={"in": 5.0},
                                    recovery=recovery, stamp_plan=False)
        assert np.array_equal(fast.data, legacy.data)

    def test_substep_halving_walks_identically(self):
        """Substep halving changes dt (and so the linear base); with
        gmin and source disabled the ladder is exhausted — both paths
        must fail on the same rung with the same transcript."""
        recovery = RecoveryConfig(max_newton=25, enable_gmin=False,
                                  enable_source=False)
        circuit = stiff_diode_circuit()
        transcripts = []
        for stamp_plan in (True, False):
            with pytest.raises(ConvergenceError) as excinfo:
                simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                   initial_voltages={"in": 5.0},
                                   recovery=recovery, stamp_plan=stamp_plan)
            transcripts.append([(a.rung, a.detail, a.converged)
                                for a in excinfo.value.recovery.attempts])
        assert transcripts[0] == transcripts[1]

    def test_trapezoidal_integrator_is_bit_identical(self):
        circuit = stiff_diode_circuit(v_t=0.05)
        fast = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                  initial_voltages={"in": 5.0},
                                  integrator="trap", stamp_plan=True)
        legacy = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                    initial_voltages={"in": 5.0},
                                    integrator="trap", stamp_plan=False)
        assert np.array_equal(fast.data, legacy.data)


class TestDcEquivalence:
    def test_localblock_dc_is_identical(self):
        circuit, _initial = localblock_circuit()
        assert (solve_dc(circuit, stamp_plan=True)
                == solve_dc(circuit, stamp_plan=False))

    def test_starved_newton_dc_recovers_identically(self):
        """A 15-iteration Newton budget escalates the DC ladder to
        source stepping — the rung that rescales the source vector."""
        recovery = RecoveryConfig(max_newton=15, gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit(v_t=0.02)
        with obs.instrumented() as registry:
            fast = solve_dc(circuit, recovery=recovery, stamp_plan=True)
            counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.source"] == 1  # the ladder ran
        assert fast == solve_dc(circuit, recovery=recovery,
                                stamp_plan=False)


def single_device_circuit(element):
    """``element``'s device alone, each terminal driven by a source."""
    circuit = Circuit(f"single-{element.name}")
    for node in ("d", "g", "s"):
        circuit.add(VoltageSource(f"v_{node}", node, "0", dc(0.0)))
    circuit.add(MosfetElement(element.name, "d", "g", "s", element.device))
    return circuit


class TestCompiledDevices:
    @pytest.mark.parametrize("name, polarity", [
        ("m_sa_n1", Polarity.NMOS), ("m_sa_p1", Polarity.PMOS)])
    def test_assembly_matches_element_stamp(self, name, polarity):
        """The plan's assembled matrix and RHS equal the element's own
        ``stamp()`` byte for byte over the terminal grid, reverse
        conduction (drain below source) included."""
        source, _initial = localblock_circuit()
        element = next(el for el in source.elements if el.name == name)
        assert element.device.polarity is polarity
        circuit = single_device_circuit(element)
        system = MnaSystem(circuit)
        plan = StampPlan(MnaSystem(circuit))
        point = plan.begin_point(t=0.0)
        order = stamping_order(circuit)
        d, g, s = (system.index(node) for node in ("d", "g", "s"))
        grid = np.linspace(-0.2, 1.4, 9)
        for v_d in grid:
            for v_g in grid:
                for v_s in (0.0, 0.3, 1.2):
                    x = np.zeros(system.size)
                    x[d], x[g], x[s] = v_d, v_g, v_s
                    values, rhs = plan._assemble(point, x)
                    system.reset()
                    ctx = StampContext(system=system, x=x, time=0.0)
                    for el in order:
                        el.stamp(ctx)
                    assert values.tobytes() == system.matrix.tobytes()
                    assert rhs.tobytes() == system.rhs.tobytes()


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
        with pytest.raises(ConfigurationError,
                           match=r"_PythonDiode .*stamp_plan=False"):
            simulate_transient(divider(_PythonDiode), t_stop=1e-9,
                               dt=1e-11)

    def test_legacy_loop_matches_plan_on_builtin_twin(self):
        legacy = simulate_transient(divider(_PythonDiode), t_stop=1e-9,
                                    dt=1e-11, stamp_plan=False)
        plan = simulate_transient(divider(Diode), t_stop=1e-9, dt=1e-11)
        assert np.array_equal(legacy.data, plan.data)

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
        owner, name = ((linalg, "lu_factorize") if backend == "dense"
                       else (SparseContext, "factorize"))
        iterates = count_calls(monkeypatch, StampPlan, "solve_iterate")
        factors = count_calls(monkeypatch, owner, name)
        circuit, initial = localblock_circuit()
        simulate_transient(circuit, t_stop=0.05 * ns, dt=_DT,
                           initial_voltages=initial, backend=backend)
        assert factors[0] == iterates[0] >= 50


class TestNewtonTelemetry:
    def test_newton_iteration_histogram_is_emitted(self):
        circuit, initial = localblock_circuit()
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=0.05 * ns, dt=_DT,
                               initial_voltages=initial, stamp_plan=True)
            snapshot = registry.snapshot()
        histogram = snapshot["histograms"]["spice.newton.iterations"]
        assert histogram["count"] == 50  # one observation per timestep


class TestStampingOrder:
    def test_order_groups_linear_elements_then_the_rest(self):
        """Linear elements come grouped by type (circuit order within a
        group), nonlinear elements trail in circuit order — the
        documented canonical order both solver paths share."""
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
        assert (solve_dc(circuit, stamp_plan=True)
                == solve_dc(circuit, stamp_plan=False))
