"""The bit-identity contract, checked by running it.

The refresh period comes from the worst-case tail of a seeded
Monte-Carlo population, so a seed must fix every sample, every
checkpoint byte and every merged report — at any ``--jobs``,
``--batch``, resume point and hash seed.  Each class below guards one
way that contract breaks:

* ``TestNoGlobalStreams`` — a draw from a module-global RNG
  (``np.random.*``, :mod:`random`) or an unseeded generator;
* ``TestAmbientStateIndependence`` — wall-clock time, the pid, the
  environment or the working directory reaching a fingerprint or a
  checkpoint;
* ``TestHashSeedIndependence`` — ``set`` iteration order reaching
  ordered output: the stopped and the resuming process of a
  checkpointed run hash strings with different seeds, so the run is
  replayed in fresh interpreters under pinned ``PYTHONHASHSEED``
  values;
* ``TestSubmissionOrderMerge`` — results, float reductions or worker
  telemetry folded in completion order;
* ``TestErrorsAreNeverSwallowed`` — a broad ``except`` in the executor
  turning a programming error into a silent gap.

Worker callables live at module level so they pickle across the
process boundary.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import FastDramDesign, obs
from repro.array import ReadMarginAnalysis
from repro.cli import main
from repro.errors import (CalibrationError, ConfigurationError,
                          ConvergenceError, NetlistError, SimulationError)
from repro.exec import run_parallel_sweep, supervise
from repro.exec.supervise import SupervisionPolicy, backoff_delay
from repro.faults.chaos import generate_chaos_plan
from repro.faults.plan import generate_fault_plan
from repro.refresh.adaptive import plan_binned_refresh
from repro.units import kb
from repro.variability.distributions import GaussianSpec, LognormalSpec
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.localblock_mc import LocalBlockMcModel
from repro.variability.montecarlo import run_monte_carlo
from repro.variability.pelgrom import PelgromModel

SRC = str(pathlib.Path(repro.__file__).parents[1])
KEYS = [f"s{i:02d}" for i in range(12)]


@functools.lru_cache(maxsize=None)
def _design():
    return FastDramDesign()


@functools.lru_cache(maxsize=None)
def _retention():
    return _design().cell().retention_model()


@functools.lru_cache(maxsize=None)
def _localblock():
    return LocalBlockMcModel(_design().cell())


@functools.lru_cache(maxsize=None)
def _globalbitline():
    return GlobalBitlineMcModel(_design().cell(), blocks=4)


@functools.lru_cache(maxsize=None)
def _macro():
    return _design().build(128 * kb, retention_override=1e-3)


def _rng(seed):
    return np.random.default_rng(seed)


def _read_margin(seed):
    macro = _macro()
    analysis = ReadMarginAnalysis(
        organization=macro.organization, local_sa=macro.local_sa,
        retention=_retention(), samples=200, seed=seed)
    return analysis.evaluate(1e-3)


def _binned_plan(seed):
    plan = plan_binned_refresh(_retention(), n_blocks=8, rows_per_block=4,
                               seed=seed)
    return repr(plan)


# -- module-global RNG streams ------------------------------------------------

#: Every seeded entry point: ``seed -> comparable value``.
SEEDED_DRAWS = {
    "retention_sample": lambda s: _retention().sample_retention(_rng(s)),
    "retention_sample_many": lambda s: tuple(
        _retention().sample_many(_rng(s), 64).tolist()),
    "gaussian_spec": lambda s: tuple(
        GaussianSpec(0.0, 1.0).sample(_rng(s), 8).tolist()),
    "lognormal_spec": lambda s: tuple(
        LognormalSpec(1e-15, 0.5).sample(_rng(s), 8).tolist()),
    "pelgrom_vth_shifts": lambda s: tuple(PelgromModel().sample_vth_shifts(
        _design().cell().access, _rng(s), 8).tolist()),
    "localblock_draw": lambda s: _localblock().draw(_rng(s)),
    "localblock_read_signal": lambda s: _localblock()(_rng(s)),
    "globalbitline_draw": lambda s: _globalbitline().draw(_rng(s)),
    "read_margin": _read_margin,
    "binned_refresh_plan": _binned_plan,
    "fault_plan": lambda s: generate_fault_plan(
        seed=s, n_blocks=4, rows_per_block=32,
        retention_model=_retention()).fingerprint(),
    "chaos_plan": lambda s: generate_chaos_plan(
        KEYS, seed=s, scratch_dir="unused", kills=2, hangs=1, slows=1,
        flakies=1),
    "monte_carlo": lambda s: tuple(run_monte_carlo(
        _retention().sample_retention, 16, seed=s).samples.tolist()),
    "retry_backoff": lambda s: backoff_delay(
        SupervisionPolicy(max_retries=2, seed=s), 3, 2),
}


def _global_streams():
    kind, keys, pos, has_gauss, cached = np.random.get_state()
    return (kind, tuple(keys.tolist()), pos, has_gauss, cached,
            random.getstate())


class TestNoGlobalStreams:
    @pytest.mark.parametrize("name", sorted(SEEDED_DRAWS))
    def test_seeded_draw_leaves_global_streams_alone(self, name):
        draw = SEEDED_DRAWS[name]
        np.random.seed(1234)
        random.seed(1234)
        before = _global_streams()
        first = draw(7)
        assert _global_streams() == before, (
            f"{name} consumed a module-global random stream")
        # Whatever the global streams hold, the seed alone decides.
        np.random.seed(99)
        random.seed(99)
        assert draw(7) == first


# -- ambient process state ----------------------------------------------------


def _mc_checkpoint_bytes(tmp_path: pathlib.Path) -> bytes:
    path = tmp_path / "mc.json"
    assert main(["mc", "--samples", "50", "--checkpoint", str(path),
                 "--max-seconds", "1e-9"]) == 0
    return path.read_bytes()


def _report_fingerprint(tmp_path: pathlib.Path) -> str:
    path = tmp_path / "run.json"
    assert main(["fig5", "--cycles", "2000", "--metrics-out",
                 str(path)]) == 0
    return json.loads(path.read_text())["fingerprint"]


def _fault_plan_fingerprint(tmp_path: pathlib.Path) -> str:
    return generate_fault_plan(seed=3, n_blocks=4,
                               rows_per_block=32).fingerprint()


SURFACES = {
    "mc_checkpoint": _mc_checkpoint_bytes,
    "run_report": _report_fingerprint,
    "fault_plan": _fault_plan_fingerprint,
}


def _skew_clock(monkeypatch, tmp_path):
    real = time.time
    monkeypatch.setattr(time, "time", lambda: real() + 1e6)


def _other_pid(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "getpid", lambda: 424242)


def _other_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_AMBIENT_PROBE", "1")
    monkeypatch.setenv("USER", "someone-else")
    monkeypatch.setenv("HOSTNAME", "elsewhere")


def _other_cwd(monkeypatch, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)


AMBIENT = {
    "wall_clock": _skew_clock,
    "pid": _other_pid,
    "environment": _other_environment,
    "cwd": _other_cwd,
}


class TestAmbientStateIndependence:
    @pytest.mark.parametrize("ambient", sorted(AMBIENT))
    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_surface_ignores_ambient_state(self, surface, ambient, tmp_path,
                                           monkeypatch, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        baseline = SURFACES[surface](tmp_path / "a")
        AMBIENT[ambient](monkeypatch, tmp_path)
        assert SURFACES[surface](tmp_path / "b") == baseline


# -- string-hash seeds --------------------------------------------------------

#: Run in a fresh interpreter per hash seed; prints one JSON object of
#: probe name -> ordered output.
HASH_PROBE = r'''
import contextlib, io, json, sys, tempfile
import numpy as np
from repro import FastDramDesign
from repro.array.localblock import build_localblock_read_circuit
from repro.cli import main
from repro.core.designspace import sweep_retention_resumable
from repro.errors import SimulationError
from repro.exec import run_parallel_sweep
from repro.faults.chaos import generate_chaos_plan
from repro.faults.plan import generate_fault_plan
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.montecarlo import run_monte_carlo_resumable

def rejecting(rng):
    value = float(rng.normal())
    if value > 1.0:
        raise SimulationError("tail sample rejected")
    return value

def halve(value):
    if value % 5 == 3:
        raise SimulationError("odd point")
    return value / 2

cell = FastDramDesign().cell()
keys = [f"s{i:02d}" for i in range(12)]
probes = {}
probes["set_control"] = list({"alpha", "beta", "gamma", "delta",
                              "epsilon", "zeta", "eta", "theta"})
probes["localblock_nodes"] = build_localblock_read_circuit(cell).nodes()
probes["globalbitline_nodes"] = GlobalBitlineMcModel(
    cell, blocks=4)._template().nodes()
probes["chaos_plan"] = generate_chaos_plan(
    keys, seed=2009, scratch_dir="unused", kills=2, hangs=1, slows=2,
    flakies=2).describe()
probes["fault_plan"] = generate_fault_plan(
    seed=5, n_blocks=8, rows_per_block=32,
    refresh_drop_fraction=0.05, refresh_late_fraction=0.05).describe()
outcome = run_parallel_sweep(
    [(f"point-{name}", halve, (i,)) for i, name in enumerate(keys)])
probes["sweep_merge"] = [list(outcome.results.items()),
                         list(outcome.failures), sorted(outcome.errors)]
mc = run_monte_carlo_resumable(rejecting, 40, seed=5)
probes["mc_failures"] = [sorted(mc.errors), mc.result.samples.tolist()]
rows = sweep_retention_resumable([1e-4, 1e-3, 1e-2, 1e-1])
probes["retention_sweep"] = [[key, repr(row)]
                             for key, row in rows.results.items()]
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    main(["check", sys.argv[1]])
probes["model_check"] = buffer.getvalue()
print(json.dumps(probes))
'''

HASH_SEEDS = ("0", "1", "2")


@pytest.fixture(scope="module")
def hash_probes():
    examples = pathlib.Path(SRC).parent / "examples"
    runs = {}
    for seed in HASH_SEEDS:
        done = subprocess.run(
            [sys.executable, "-c", HASH_PROBE, str(examples)], check=True,
            capture_output=True, text=True, timeout=100,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed})
        runs[seed] = json.loads(done.stdout)
    return runs


PROBES = ("localblock_nodes", "globalbitline_nodes", "chaos_plan",
          "fault_plan", "sweep_merge", "mc_failures", "retention_sweep",
          "model_check")


class TestHashSeedIndependence:
    def test_hash_seeds_reorder_sets(self, hash_probes):
        # Proves the probe interpreters really hash differently, so the
        # identity checks below are not vacuous.
        orders = {tuple(run["set_control"]) for run in hash_probes.values()}
        assert len(orders) > 1

    @pytest.mark.parametrize("probe", PROBES)
    def test_output_identical_under_every_hash_seed(self, hash_probes,
                                                    probe):
        reference = hash_probes[HASH_SEEDS[0]][probe]
        assert reference, f"probe {probe} produced nothing"
        for seed in HASH_SEEDS[1:]:
            assert hash_probes[seed][probe] == reference, (
                f"{probe} differs under PYTHONHASHSEED={seed}")


# -- ordered merge ------------------------------------------------------------


def late_first(index, count):
    """Later items finish first: completion order reverses submission."""
    time.sleep(0.02 * (count - index))
    obs.event("test.merge", index=index)
    return 0.1 * index + 1e-16 * (index % 3)


def _reversed_items(count=8):
    return [(f"k{i}", late_first, (i, count)) for i in range(count)]


#: (jobs, chunk_size) settings whose completion order differs from
#: submission order.
DISPATCH = [(2, 1), (3, 1), (2, 2)]


class TestSubmissionOrderMerge:
    @pytest.mark.parametrize("jobs,chunk_size", DISPATCH)
    def test_results_and_reduction_match_serial(self, jobs, chunk_size):
        serial = run_parallel_sweep(_reversed_items(), jobs=1)
        parallel = run_parallel_sweep(_reversed_items(), jobs=jobs,
                                      chunk_size=chunk_size)
        assert list(parallel.results.items()) == list(serial.results.items())
        # The float sum is order-sensitive; it must come out bit-equal.
        assert (sum(parallel.results.values())
                == sum(serial.results.values()))

    @pytest.mark.parametrize("jobs,chunk_size", DISPATCH)
    def test_worker_events_merge_in_submission_order(self, jobs,
                                                     chunk_size):
        with obs.instrumented(events=obs.EventLog()):
            run_parallel_sweep(_reversed_items(), jobs=jobs,
                               chunk_size=chunk_size)
            merged = [event["payload"]["index"]
                      for event in obs.events().to_dicts()
                      if event["kind"] == "test.merge"]
        assert merged == list(range(8))


# -- exception handling in the executor ---------------------------------------


def raise_at_three(value, kind):
    if value == 3:
        raise kind("item three is broken")
    return value * value


class Unpicklable(Exception):
    def __init__(self, left, right):
        super().__init__(f"{left}/{right}")


def raise_unpicklable(value):
    if value == 3:
        raise Unpicklable("left", "right")
    return value


PROGRAMMING_ERRORS = [ValueError, KeyError, TypeError, ZeroDivisionError,
                      AssertionError, RuntimeError]
MODEL_ERRORS = [ConfigurationError, ConvergenceError, NetlistError,
                SimulationError, CalibrationError]


def _items(fn, *extra, count=6):
    return [(f"k{i}", fn, (i,) + extra) for i in range(count)]


class TestErrorsAreNeverSwallowed:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", PROGRAMMING_ERRORS,
                             ids=lambda kind: kind.__name__)
    def test_programming_error_reraises_in_parent(self, kind, jobs):
        with pytest.raises(kind):
            run_parallel_sweep(_items(raise_at_three, kind), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", MODEL_ERRORS,
                             ids=lambda kind: kind.__name__)
    def test_model_error_is_a_recorded_failure(self, kind, jobs):
        outcome = run_parallel_sweep(_items(raise_at_three, kind),
                                     jobs=jobs)
        assert outcome.failures == ("k3",)
        assert kind.__name__ in outcome.errors["k3"]
        assert "item three is broken" in outcome.errors["k3"]
        assert outcome.results == {f"k{i}": i * i for i in range(6)
                                   if i != 3}

    def test_unpicklable_worker_error_names_its_type(self):
        with pytest.raises(RuntimeError, match="Unpicklable: left/right"):
            run_parallel_sweep(_items(raise_unpicklable), jobs=2)

    @pytest.mark.parametrize("kind", [ValueError, SimulationError,
                                      KeyboardInterrupt],
                             ids=lambda kind: kind.__name__)
    def test_sample_deadline_propagates_and_disarms(self, kind):
        with pytest.raises(kind):
            with supervise.sample_deadline("k0", 5.0):
                assert supervise._DEADLINE == 5.0
                raise kind("evaluation failed")
        assert supervise._TOKEN is None
        assert supervise._DEADLINE is None
