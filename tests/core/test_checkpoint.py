"""Checkpoint/resume and run budgets: killed sweeps finish correctly.

The flagship guarantee (ISSUE acceptance): a sweep killed mid-run and
resumed from its checkpoint produces *exactly* the result an
uninterrupted run with the same seed would have produced.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.checkpoint import Checkpoint, RunBudget
from repro.core.designspace import (sweep_retention,
                                    sweep_retention_resumable,
                                    sweep_sizes, sweep_sizes_resumable)
from repro.core.optimizer import DesignOptimizer
from repro.errors import ConfigurationError, SimulationError
from repro.exec import run_parallel_sweep
from repro.obs import config_fingerprint
from repro.units import kb, ms, us
from repro.variability.montecarlo import (run_monte_carlo,
                                          run_monte_carlo_resumable)


class _Killed(BaseException):
    """Simulated kill; BaseException so no handler can swallow it."""


class _KillAfterSaves(Checkpoint):
    """Checkpoint that dies right *after* its n-th successful save."""

    def __init__(self, path, fingerprint, saves: int) -> None:
        super().__init__(path, fingerprint)
        self._remaining = saves

    def save(self, done) -> None:
        super().save(done)
        self._remaining -= 1
        if self._remaining == 0:
            raise _Killed


@pytest.fixture()
def ckpt(tmp_path):
    return Checkpoint(tmp_path / "sweep.ckpt.json", fingerprint="fp-1")


class TestCheckpointFile:
    def test_atomic_roundtrip(self, ckpt):
        ckpt.save({"a": 1, "b": [2, 3]})
        assert ckpt.load() == {"a": 1, "b": [2, 3]}
        assert not list(ckpt.path.parent.glob("*.tmp"))  # no litter

    def test_missing_file_loads_none(self, ckpt):
        assert ckpt.load() is None
        assert not ckpt.exists()

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "c.json"
        Checkpoint(path, fingerprint="fp-old").save({"x": 1})
        with pytest.raises(ConfigurationError, match="fp-old"):
            Checkpoint(path, fingerprint="fp-new").load()

    def test_schema_mismatch_refuses_resume(self, ckpt):
        payload = json.loads(
            '{"schema": 999, "fingerprint": "fp-1", "done": {}}')
        ckpt.path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="schema"):
            ckpt.load()

    def test_corrupt_file_is_quarantined_not_fatal(self, ckpt):
        ckpt.path.write_text("{not json")
        assert ckpt.load() is None  # resume from scratch, not a crash
        sidecar = ckpt.path.with_name(ckpt.path.name + ".corrupt")
        assert sidecar.exists()
        assert sidecar.read_text() == "{not json"
        assert not ckpt.path.exists()

    def test_clear_removes_file(self, ckpt):
        ckpt.save({})
        ckpt.clear()
        assert not ckpt.exists()
        ckpt.clear()  # idempotent


class TestRunSweep:
    def test_completes_and_keeps_order(self):
        outcome = run_parallel_sweep([(k, ord, (k,)) for k in "abc"],
                                     jobs=1)
        assert list(outcome.results) == ["a", "b", "c"]
        assert outcome.complete
        assert outcome.describe() == "3/3 completed"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel_sweep([("a", int, (1,)), ("a", int, (2,))],
                               jobs=1)

    def test_failures_recorded_not_raised(self):
        def boom():
            raise SimulationError("diverged")
        outcome = run_parallel_sweep([("ok", int, (1,)), ("bad", boom, ()),
                                      ("ok2", int, (2,))], jobs=1)
        assert outcome.failures == ("bad",)
        assert outcome.completed == 2
        assert outcome.attempted == 3
        assert not outcome.complete

    def test_budget_max_failures_stops_sweep(self):
        def boom():
            raise SimulationError("diverged")
        outcome = run_parallel_sweep([("a", boom, ()), ("b", boom, ()),
                                      ("c", int, (3,))], jobs=1,
                                     budget=RunBudget(max_failures=2))
        assert outcome.exhausted == "max_failures"
        assert "c" not in outcome.results

    def test_budget_max_seconds_stops_immediately(self):
        outcome = run_parallel_sweep([("a", int, (1,))], jobs=1,
                                     budget=RunBudget(max_seconds=0.0))
        assert outcome.exhausted == "max_seconds"
        assert outcome.completed == 0

    def test_killed_run_resumes_identically(self, ckpt):
        calls = []

        def items():
            return [(k, lambda k: calls.append(k) or ord(k), (k,))
                    for k in "abcde"]

        # "Kill" after two items via a failure budget on a poisoned run:
        # simpler — run with max_seconds=0 after pre-seeding 2 items.
        first = run_parallel_sweep(items()[:2], jobs=1, checkpoint=ckpt)
        assert first.completed == 2
        resumed = run_parallel_sweep(items(), jobs=1, checkpoint=ckpt)
        assert resumed.complete
        assert resumed.results == {k: ord(k) for k in "abcde"}
        # The first two items were restored, not re-evaluated.
        assert calls == ["a", "b", "c", "d", "e"]


class TestResumableSweeps:
    VALUES = (200 * us, 500 * us, 1 * ms)

    def test_retention_resume_matches_uninterrupted(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "r.json",
                          config_fingerprint({"values": self.VALUES}))
        partial = sweep_retention_resumable(
            self.VALUES, checkpoint=ckpt,
            budget=RunBudget(max_seconds=0.0))
        assert partial.exhausted == "max_seconds"
        resumed = sweep_retention_resumable(self.VALUES, checkpoint=ckpt)
        assert resumed.complete
        assert list(resumed.results.values()) == sweep_retention(self.VALUES)

    def test_sizes_resume_matches_uninterrupted(self, tmp_path):
        sizes = (128 * kb, 512 * kb)
        ckpt = Checkpoint(tmp_path / "s.json",
                          config_fingerprint({"sizes": sizes}))
        sweep_sizes_resumable(sizes, checkpoint=ckpt)
        resumed = sweep_sizes_resumable(sizes, checkpoint=ckpt)
        assert list(resumed.results.values()) == sweep_sizes(sizes)

    def test_optimizer_partial_then_full(self, tmp_path):
        optimizer = DesignOptimizer(total_bits=128 * kb)
        ckpt = Checkpoint(tmp_path / "o.json",
                          config_fingerprint({"grid": "default"}))
        full = optimizer.run()
        assert full.complete
        assert full.completed == full.attempted > 0
        # A checkpointed run reproduces the uninterrupted result.
        again = optimizer.run(checkpoint=ckpt)
        resumed = optimizer.run(checkpoint=ckpt)
        assert resumed.best == again.best == full.best
        assert resumed.pareto_front == full.pareto_front

    def test_optimizer_budget_yields_partial_accounting(self):
        result = DesignOptimizer(total_bits=128 * kb).run(
            budget=RunBudget(max_failures=10**9, max_seconds=10.0))
        assert result.completed >= 1


class TestMonteCarloResume:
    @staticmethod
    def model(rng: np.random.Generator) -> float:
        return float(rng.normal(10.0, 2.0))

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "mc.json", "fp-mc")
        killed = run_monte_carlo_resumable(
            self.model, count=50, seed=9, checkpoint=ckpt,
            budget=RunBudget(max_seconds=0.0))
        assert killed.exhausted == "max_seconds"
        assert not killed.complete
        resumed = run_monte_carlo_resumable(self.model, count=50, seed=9,
                                            checkpoint=ckpt)
        assert resumed.complete
        straight = run_monte_carlo(self.model, count=50, seed=9)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.samples)

    @pytest.mark.parametrize("saves", [1, 17, 39])
    def test_partial_mid_run_resume_is_bit_identical(self, tmp_path, saves):
        path = tmp_path / "mc2.json"
        # Save every sample and die right after the k-th save.
        with pytest.raises(_Killed):
            run_monte_carlo_resumable(
                self.model, count=40, seed=3, save_every=1,
                checkpoint=_KillAfterSaves(path, "fp-mc2", saves))
        saved = Checkpoint(path, "fp-mc2").load()
        assert 0 < saved["next"] < 40  # killed genuinely mid-run
        assert saved["next"] == saves == len(saved["samples"])
        resumed = run_monte_carlo_resumable(
            self.model, count=40, seed=3,
            checkpoint=Checkpoint(path, "fp-mc2"))
        assert resumed.complete
        straight = run_monte_carlo(self.model, count=40, seed=3)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.samples)

    def test_failed_samples_counted_against_budget(self):
        def flaky(rng: np.random.Generator) -> float:
            value = rng.uniform()
            if value < 0.5:
                raise SimulationError("non-convergent sample")
            return value

        outcome = run_monte_carlo_resumable(
            flaky, count=30, seed=1, budget=RunBudget(max_failures=5))
        assert outcome.exhausted == "max_failures"
        assert outcome.failed == 5
        assert outcome.attempted < 30
        assert outcome.describe().startswith(f"{outcome.completed}/30")

    def test_too_few_samples_yield_no_result(self):
        outcome = run_monte_carlo_resumable(
            self.model, count=10, seed=0,
            budget=RunBudget(max_seconds=0.0))
        assert outcome.result is None
