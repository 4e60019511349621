"""Batched sample-axis transient solver: bit-identity is the contract.

Every test here compares the batched engine against per-sample
:func:`repro.spice.transient.simulate_transient` calls with
``np.array_equal`` (no tolerance): the batch is a *transcription* of
the scalar Newton loop, not an approximation of it.  Samples the batch
cannot carry — stiff draws that trip damping or exhaust the Newton
budget, singular rows, whole stacks with mismatched topology — must be
ejected to the scalar path so the contract holds by construction.
Sparse-sized stacks hold the same contract against scalar-sparse runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cells.dram1t1c import Dram1t1cCell
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.spice import (
    BatchTransientModel,
    Capacitor,
    Circuit,
    Diode,
    Resistor,
    VoltageSource,
    batch_transient_outcomes,
    dc,
    eval_model_batch,
    simulate_transient,
)
from repro.core import FastDramDesign
from repro.spice import batch as batch_module
from repro.spice.batch import (_carve_memo, _libm_exp, _libm_memo,
                               _libm_pow10)
from repro.spice.mna import MnaSystem
from repro.spice.recovery import RecoveryConfig
from repro.spice.sparse import _symbolic_cache
from repro.spice.stampplan import SPARSE_AUTO_THRESHOLD
from repro.units import ns
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.localblock_mc import LocalBlockMcModel
from repro.variability.montecarlo import run_monte_carlo_resumable

T_STOP = 2e-10
DT = 1e-11


def _diode_divider(name: str, resistance: float, capacitance: float,
                   v_t: float, drive: float = 2.0) -> Circuit:
    """One sample: a driven RC node clamped by a diode.  The exponential
    diode is the nonlinearity that makes Newton iterate (and, at small
    ``v_t``, oscillate hard enough to trigger ejection)."""
    circuit = Circuit(name)
    circuit.add(VoltageSource("v1", "in", "0", dc(drive)))
    circuit.add(Resistor("r1", "in", "mid", resistance))
    circuit.add(Diode("d1", "mid", "0", v_t=v_t, v_clip=0.8))
    circuit.add(Capacitor("c1", "mid", "0", capacitance))
    return circuit


def _stack(count: int, seed: int, v_t: float = 0.026) -> list:
    rng = np.random.default_rng(seed)
    return [
        _diode_divider("stack", float(rng.lognormal(np.log(10e3), 0.4)),
                       float(rng.uniform(0.5e-12, 2e-12)), v_t)
        for _ in range(count)
    ]


def _serial_outcomes(circuits, recovery=None):
    outcomes = []
    for circuit in circuits:
        try:
            outcomes.append((True, simulate_transient(
                circuit, T_STOP, DT, recovery=recovery)))
        except ReproError as exc:
            outcomes.append((False, exc))
    return outcomes


def _assert_outcomes_identical(batched, serial):
    assert len(batched) == len(serial)
    for (b_ok, b_payload), (s_ok, s_payload) in zip(batched, serial):
        assert b_ok == s_ok
        if b_ok:
            assert np.array_equal(b_payload.data, s_payload.data)
            assert np.array_equal(b_payload.time, s_payload.time)
        else:
            assert type(b_payload) is type(s_payload)
            assert str(b_payload) == str(s_payload)


class TestBitIdentity:
    def test_waveforms_bit_identical(self):
        circuits = _stack(5, seed=7)
        batched = batch_transient_outcomes(circuits, T_STOP, DT)
        assert all(ok for ok, _ in batched)
        for circuit, (_, result) in zip(circuits, batched):
            reference = simulate_transient(circuit, T_STOP, DT)
            assert np.array_equal(result.data, reference.data)
            assert np.array_equal(result.time, reference.time)
            assert result.node_index == reference.node_index

    def test_per_sample_initial_voltages(self):
        circuits = _stack(3, seed=11)
        initials = [{"mid": 0.1 * b} for b in range(3)]
        batched = batch_transient_outcomes(circuits, T_STOP, DT,
                                           initial_voltages=initials)
        assert all(ok for ok, _ in batched)
        for circuit, initial, (_, result) in zip(circuits, initials,
                                                 batched):
            reference = simulate_transient(circuit, T_STOP, DT,
                                           initial_voltages=initial)
            assert np.array_equal(result.data, reference.data)

    def test_ejected_stiff_samples_identical(self):
        # v_t = 0.012 makes the diode exponential steep and a 2-iterate
        # Newton budget unreachable for most samples: they must eject
        # to the scalar recovery ladder and still match it bit for bit.
        circuits = _stack(4, seed=3, v_t=0.012)
        recovery = RecoveryConfig(max_newton=2)
        batched = batch_transient_outcomes(circuits, T_STOP, DT,
                                           recovery=recovery)
        _assert_outcomes_identical(
            batched, _serial_outcomes(circuits, recovery=recovery))

    def test_scalar_failures_reproduced(self):
        # With every recovery rung disabled a 1-iterate budget fails on
        # the scalar path too; the batch must hand back the *same*
        # error per sample instead of raising or succeeding.
        circuits = _stack(3, seed=5, v_t=0.012)
        recovery = RecoveryConfig(
            max_newton=1, enable_damping=False, enable_substep=False,
            enable_gmin=False, enable_source=False)
        batched = batch_transient_outcomes(circuits, T_STOP, DT,
                                           recovery=recovery)
        serial = _serial_outcomes(circuits, recovery=recovery)
        assert any(not ok for ok, _ in serial)  # the workload is stiff
        _assert_outcomes_identical(batched, serial)


class TestFallbacks:
    def test_single_sample_runs_scalar(self):
        circuits = _stack(1, seed=2)
        with obs.instrumented() as registry:
            batched = batch_transient_outcomes(circuits, T_STOP, DT)
        assert registry.counter("spice.batch.fallback").value == 1
        assert registry.counter("spice.batch.batches").value == 0
        _assert_outcomes_identical(batched, _serial_outcomes(circuits))

    def test_trap_integrator_falls_back(self):
        circuits = _stack(3, seed=2)
        with obs.instrumented() as registry:
            batched = batch_transient_outcomes(circuits, T_STOP, DT,
                                               integrator="trap")
        assert registry.counter("spice.batch.fallback").value == 3
        for circuit, (ok, result) in zip(circuits, batched):
            assert ok
            reference = simulate_transient(circuit, T_STOP, DT,
                                           integrator="trap")
            assert np.array_equal(result.data, reference.data)

    def test_mixed_topology_falls_back(self):
        circuits = _stack(2, seed=2)
        other = Circuit("stack")
        other.add(VoltageSource("v1", "in", "0", dc(2.0)))
        other.add(Resistor("r1", "in", "mid", 1e4))
        other.add(Resistor("r2", "mid", "0", 1e4))  # no diode: new shape
        other.add(Capacitor("c1", "mid", "0", 1e-12))
        circuits.append(other)
        with obs.instrumented() as registry:
            batched = batch_transient_outcomes(circuits, T_STOP, DT)
        assert registry.counter("spice.batch.fallback").value == 3
        _assert_outcomes_identical(batched, _serial_outcomes(circuits))

    def test_batched_stack_counts_samples(self):
        circuits = _stack(4, seed=2)
        with obs.instrumented() as registry:
            batch_transient_outcomes(circuits, T_STOP, DT)
        assert registry.counter("spice.batch.batches").value == 1
        assert registry.counter("spice.batch.samples").value == 4
        assert registry.counter("spice.batch.fallback").value == 0

    def test_empty_stack(self):
        assert batch_transient_outcomes([], T_STOP, DT) == []

    def test_bad_integrator_raises(self):
        with pytest.raises(SimulationError):
            batch_transient_outcomes(_stack(2, seed=0), T_STOP, DT,
                                     integrator="rk4")


class _DividerModel(BatchTransientModel):
    """Minimal batchable MC model over the diode divider."""

    t_stop = T_STOP
    dt = DT

    def __init__(self, fail_draw_below: float = -1.0,
                 fail_measure_above: float = 2.0) -> None:
        self.fail_draw_below = fail_draw_below
        self.fail_measure_above = fail_measure_above

    def draw(self, rng):
        value = float(rng.uniform())
        if value < self.fail_draw_below:
            raise ConfigurationError(f"draw fault at {value:.3f}")
        return 5e3 + 2e4 * value

    def build(self, resistance):
        return _diode_divider("model", resistance, 1e-12, 0.026)

    def measure(self, result, resistance):
        value = float(result.final_voltage("mid"))
        if value > self.fail_measure_above:
            raise SimulationError(f"measure fault at {value:.3f}")
        return value


class TestEvalModelBatch:
    def _rngs(self, count, seed):
        return [np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(count)]

    def test_matches_serial_model_calls(self):
        model = _DividerModel()
        outcomes = eval_model_batch(model, self._rngs(5, seed=13))
        reference = [model(rng) for rng in self._rngs(5, seed=13)]
        assert [value for ok, value in outcomes] == reference
        assert all(ok for ok, _ in outcomes)

    def test_draw_failures_captured_per_sample(self):
        # Roughly half the draws fault; the survivors must still batch
        # and match their serial values exactly.
        model = _DividerModel(fail_draw_below=0.5)
        outcomes = eval_model_batch(model, self._rngs(6, seed=1))
        assert any(not ok for ok, _ in outcomes)
        for outcome, rng in zip(outcomes, self._rngs(6, seed=1)):
            ok, payload = outcome
            if ok:
                assert payload == model(rng)
            else:
                assert isinstance(payload, ConfigurationError)

    def test_measure_failures_captured_per_sample(self):
        model = _DividerModel(fail_measure_above=-10.0)  # always faults
        outcomes = eval_model_batch(model, self._rngs(3, seed=4))
        assert all(not ok for ok, _ in outcomes)
        assert all(isinstance(payload, SimulationError)
                   for _, payload in outcomes)

    def test_damping_telemetry_matches_serial(self):
        """Samples that damp and still converge in the batch report the
        same ``spice.damping_events`` total and ``spice.newton.damped``
        events as their serial runs."""
        model = LocalBlockMcModel(Dram1t1cCell.scratchpad(),
                                  t_stop=0.2 * ns)

        def telemetry(run):
            with obs.instrumented() as registry:
                run(model, self._rngs(4, seed=2009))
                damped = sorted(
                    (e.payload["time"], e.payload["events"])
                    for e in obs.events().events()
                    if e.kind == "spice.newton.damped")
            assert registry.counter("spice.batch.ejected").value == 0
            return registry.counter("spice.damping_events").value, damped

        batched = telemetry(eval_model_batch)
        serial = telemetry(lambda m, rngs: [m(rng) for rng in rngs])
        assert batched == serial
        assert batched[0] > 0  # the workload does damp


def _gbl_stack(count: int, seed: int = 2009):
    """A global-bitline stack above the sparse threshold: 8 blocks x 14
    cells, 50 steps."""
    model = GlobalBitlineMcModel(Dram1t1cCell.scratchpad(), blocks=8,
                                 cells_per_lbl=14, t_stop=0.05 * ns)
    params = [model.draw(np.random.default_rng(child))
              for child in np.random.SeedSequence(seed).spawn(count)]
    return (model, [model.build(p) for p in params],
            [model.initial_voltages(p) for p in params])


class TestSparseBatch:
    """Sparse-sized stacks run batched on one shared sparse pattern and
    reproduce scalar-sparse runs byte for byte."""

    def test_b8_stack_bit_identical_to_scalar_sparse(self):
        model, circuits, initials = _gbl_stack(8)
        assert MnaSystem(circuits[0]).size >= SPARSE_AUTO_THRESHOLD
        with obs.instrumented() as registry:
            batched = batch_transient_outcomes(
                circuits, model.t_stop, model.dt, initial_voltages=initials)
        assert registry.counter("spice.batch.batches").value == 1
        assert registry.counter("spice.batch.ejected").value == 0
        assert registry.counter("spice.batch.fallback").value == 0
        for circuit, initial, (ok, result) in zip(circuits, initials,
                                                  batched):
            assert ok
            reference = simulate_transient(circuit, model.t_stop, model.dt,
                                           initial_voltages=initial)
            assert result.data.tobytes() == reference.data.tobytes()

    def test_telemetry_matches_serial(self):
        """One ``spice.sparse.refactor`` per sample-iterate, and the
        same timestep count, Newton histogram and damping total as the
        serial runs."""
        model, circuits, initials = _gbl_stack(4, seed=7)

        def telemetry(run):
            with obs.instrumented() as registry:
                run()
                snap = registry.snapshot()
            return ({name: snap["counters"].get(name) for name in (
                        "spice.sparse.refactor", "spice.timesteps",
                        "spice.damping_events")},
                    snap["histograms"]["spice.newton.iterations"])

        batched = telemetry(lambda: batch_transient_outcomes(
            circuits, model.t_stop, model.dt, initial_voltages=initials))
        serial = telemetry(lambda: [
            simulate_transient(c, model.t_stop, model.dt, initial_voltages=i)
            for c, i in zip(circuits, initials)])
        assert batched == serial
        assert batched[0]["spice.damping_events"] > 0  # the stack damps

    @pytest.mark.parametrize("singular, ejected", [(2, 1), (0, 4)])
    def test_forced_singular_sample_ejected_and_reproduced(self, singular,
                                                           ejected):
        """A sample whose matrix loses a pivot is ejected from the sparse
        stack; its scalar rerun raises the structural error a serial
        run raises.  Its neighbours stay batched, unless it is row 0 of
        a cold cache: its matrix seeds the pivot analysis, which fails,
        so every row is ejected."""
        model, circuits, initials = _gbl_stack(4, seed=3)
        for circuit in circuits:
            circuit.add(Capacitor("c_probe", "probe", "0", 1e-15))
        # Bypass the constructor check: a zero capacitor leaves the
        # probe node with an all-zero matrix row in this sample only.
        circuits[singular].elements[-1].capacitance = 0.0
        _symbolic_cache.clear()
        with obs.instrumented() as registry:
            batched = batch_transient_outcomes(
                circuits, model.t_stop, model.dt, initial_voltages=initials)
            aborted = [e for e in obs.events().events()
                       if e.kind == "spice.batch.abort"]
        assert registry.counter("spice.batch.ejected").value == ejected
        assert not aborted
        serial = []
        for circuit, initial in zip(circuits, initials):
            try:
                serial.append((True, simulate_transient(
                    circuit, model.t_stop, model.dt,
                    initial_voltages=initial)))
            except ReproError as exc:
                serial.append((False, exc))
        assert [ok for ok, _ in serial] == [b != singular for b in range(4)]
        assert isinstance(serial[singular][1], SimulationError)
        assert "singular" in str(serial[singular][1])
        _assert_outcomes_identical(batched, serial)


class TestBatchProperty:
    """Hypothesis sweep of the identity contract.

    Seeds vary the component draws, ``batch`` varies the stack width,
    and the sampled recovery configs inject Newton-budget faults that
    force mid-run ejection — the three axes the ISSUE's acceptance
    property names.  Identity must hold on every combination, including
    samples that *fail* identically on both paths.
    """

    @given(seed=st.integers(0, 2**20),
           count=st.integers(2, 5),
           v_t=st.sampled_from([0.012, 0.026, 0.05]),
           max_newton=st.sampled_from([None, 2, 40]))
    @settings(max_examples=15, deadline=None)
    def test_batched_equals_serial(self, seed, count, v_t, max_newton):
        circuits = _stack(count, seed=seed, v_t=v_t)
        recovery = (None if max_newton is None
                    else RecoveryConfig(max_newton=max_newton))
        batched = batch_transient_outcomes(circuits, T_STOP, DT,
                                           recovery=recovery)
        _assert_outcomes_identical(
            batched, _serial_outcomes(circuits, recovery=recovery))


#: Arguments where a memo could go wrong: signed zeros (equal but not
#: the same bits), NaN (equal to nothing), infinities and subnormals.
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            1e-310, -1e-310, 1.0, -1.0, 2.5, -37.75, 300.0, -300.5]

#: Each memoised routing and the libm call it must equal.
_ROUTINGS = [(_libm_exp, math.exp),
             (_libm_pow10, lambda value: math.pow(10.0, value))]


class TestLibmMemo:
    """``_libm_memo`` returns what a direct libm call returns, to the
    bit, whatever its memory held before."""

    @staticmethod
    def counting(fn):
        counts = []

        def routed(values):
            counts.append(values.size)
            return fn(values)
        return routed, counts

    @staticmethod
    def assert_direct(got, args, direct):
        want = np.array([direct(v) for v in args.tolist()])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("routing, direct", _ROUTINGS)
    def test_repeated_and_changed_arguments(self, routing, direct):
        rng = np.random.default_rng(5)
        fn, counts = self.counting(routing)
        first = np.array(_SPECIAL * 3)
        memo = _carve_memo({}, "m", first.size)
        self.assert_direct(_libm_memo(fn, first, memo), first, direct)
        # Repeats reuse their results; only NaN calls libm again.
        again = first.copy()
        self.assert_direct(_libm_memo(fn, again, memo), again, direct)
        assert counts == [first.size, 3]
        # Changed cells, signed zeros swapped, a NaN turned finite and a
        # finite cell turned NaN.
        changed = rng.permutation(first)
        self.assert_direct(_libm_memo(fn, changed, memo), changed, direct)
        # ±0 keys answer each other: both routings map them to 1.0.
        flipped = -changed
        self.assert_direct(_libm_memo(fn, flipped, memo), flipped, direct)

    @pytest.mark.parametrize("routing, direct", _ROUTINGS)
    def test_gathered_cells(self, routing, direct):
        """``at`` names the cells ``x`` covers; the rest keep their
        pairs for a later call."""
        rng = np.random.default_rng(9)
        fn, counts = self.counting(routing)
        memo = _carve_memo({}, "m", 40)
        for _ in range(6):
            at = np.sort(rng.choice(40, size=int(rng.integers(1, 40)),
                                    replace=False))
            args = rng.choice(_SPECIAL, size=at.size)
            self.assert_direct(_libm_memo(fn, args, memo, at=at), args,
                               direct)
        assert sum(counts) < 6 * 40

    @pytest.mark.parametrize("routing, direct", _ROUTINGS)
    def test_live_width_that_shrinks_reads_aliased_memory(self, routing,
                                                          direct):
        """Each live width carves its memo from the front of one pool
        buffer, as the MOSFET group does, so a narrower width keys on
        the wider width's arguments and back: hits on foreign pairs
        stay exact."""
        rng = np.random.default_rng(11)
        fn, counts = self.counting(routing)
        pool: dict = {}
        cells = {live: 3 * 4 * live for live in (8, 5, 2)}
        memos = {live: _carve_memo(pool, "m", n)
                 for live, n in cells.items()}
        assert np.shares_memory(memos[8][0], memos[2][0])
        values = np.array(_SPECIAL)
        for live in (8, 5, 8, 2, 5, 8, 2):
            args = rng.choice(values, size=cells[live])
            self.assert_direct(_libm_memo(fn, args, memos[live]), args,
                               direct)
        assert sum(counts) < sum(cells[live]
                                 for live in (8, 5, 8, 2, 5, 8, 2))


class TestMemoisedExpCount:
    """The short-channel ``exp`` memo keeps the global bitline's libm
    traffic low: idle local blocks repeat their arguments."""

    def test_memo_cuts_exp_calls_and_keeps_bits(self, monkeypatch):
        model = GlobalBitlineMcModel(FastDramDesign().cell())
        scalar = run_monte_carlo_resumable(model, count=2, seed=2009,
                                           batch=1).result.samples
        counts = []
        monkeypatch.setattr(batch_module, "_libm_exp", lambda values: (
            counts.append(values.size) or _libm_exp(values)))

        def batched():
            counts.clear()
            with obs.instrumented() as registry:
                samples = run_monte_carlo_resumable(
                    model, count=2, seed=2009, batch=2).result.samples
            assert registry.counter("spice.batch.batches").value == 1
            assert registry.counter("spice.batch.ejected").value == 0
            assert samples.tobytes() == scalar.tobytes()
            return sum(counts)

        memoised = batched()
        monkeypatch.setattr(batch_module, "_libm_memo",
                            lambda fn, x, memo, at=None: fn(x))
        unmemoised = batched()
        assert unmemoised > 0
        assert memoised <= 0.25 * unmemoised
