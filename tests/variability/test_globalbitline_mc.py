"""GlobalBitlineMcModel: the sparse-backend Monte-Carlo workload.

The acceptance contract is end-to-end: the default model sits above
``SPARSE_AUTO_THRESHOLD`` so ``auto`` picks sparse; serial, ``batch``
and ``jobs`` runs are bit-identical (the batched solver runs sparse
stacks on one shared sparse pattern, and every sample seeds the same
pivot order); checkpoints written by a killed run resume to the
uninterrupted result; the model pickles for process pools.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import FastDramDesign, obs
from repro.cells.dram1t1c import Dram1t1cCell
from repro.checkpoint import Checkpoint
from repro.exec import SupervisionPolicy
from repro.spice import simulate_transient
from repro.spice.mna import MnaSystem
from repro.spice.sparse import _symbolic_cache
from repro.spice.stampplan import SPARSE_AUTO_THRESHOLD
from repro.units import ns, ps
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.montecarlo import (run_monte_carlo,
                                          run_monte_carlo_resumable)


def sparse_model() -> GlobalBitlineMcModel:
    """Smallest hierarchy that still clears the sparse threshold."""
    return GlobalBitlineMcModel(Dram1t1cCell.scratchpad(), blocks=8,
                                cells_per_lbl=14, t_stop=0.02 * ns,
                                dt=2.0 * ps)


class _Killed(BaseException):
    """Simulated kill; BaseException so no handler can swallow it."""


class _KillAfterSaves(Checkpoint):
    def __init__(self, path, fingerprint, saves: int) -> None:
        super().__init__(path, fingerprint)
        self._remaining = saves

    def save(self, state) -> None:
        super().save(state)
        self._remaining -= 1
        if self._remaining == 0:
            raise _Killed


class TestModelShape:
    def test_default_model_is_above_sparse_threshold(self):
        model = GlobalBitlineMcModel(Dram1t1cCell.scratchpad())
        assert MnaSystem(model._template()).size >= SPARSE_AUTO_THRESHOLD

    def test_draw_is_fixed_order_and_seed_stable(self):
        model = sparse_model()
        a = model.draw(np.random.default_rng(3))
        b = model.draw(np.random.default_rng(3))
        assert a == b
        assert len(a.vth_shifts) == model._n_mosfets

    def test_model_pickles_after_template_built(self):
        model = sparse_model()
        model._template()  # warm the unpicklable cache
        clone = pickle.loads(pickle.dumps(model))
        a = model.draw(np.random.default_rng(5))
        b = clone.draw(np.random.default_rng(5))
        assert a == b


class TestSparseExecution:
    def test_auto_resolves_sparse_and_batch_runs_batched_sparse(self):
        model = sparse_model()
        with obs.instrumented() as registry:
            run_monte_carlo(model, count=2, seed=9, batch=2)
            counters = registry.snapshot()["counters"]
        # The stack ran as one batch on the sparse kernel ...
        assert counters["spice.batch.batches"] == 1
        assert counters.get("spice.batch.fallback", 0) == 0
        assert counters.get("spice.batch.ejected", 0) == 0
        # ... with every sample's plan resolved to sparse, never dense.
        assert counters["spice.sparse.auto.sparse"] == 2
        assert counters["spice.sparse.refactor"] > 0
        assert counters.get("spice.sparse.auto.dense", 0) == 0

    def test_any_sample_seeds_the_same_pivot_order(self):
        """``--jobs`` workers each seed their own symbolic cache from
        whichever sample they solve first, so bit-identity across
        workers needs every sample's first matrix to pick one pivot
        order."""
        model = GlobalBitlineMcModel(FastDramDesign().cell())  # the CLI's
        orders = set()
        for child in np.random.SeedSequence(2009).spawn(8):
            params = model.draw(np.random.default_rng(child))
            _symbolic_cache.clear()
            simulate_transient(model.build(params), model.dt, model.dt,
                               initial_voltages=model.initial_voltages(
                                   params))
            (symbolic,) = _symbolic_cache.values()
            orders.add((symbolic.pr.tobytes(), symbolic.pc.tobytes()))
        assert len(orders) == 1

    def test_serial_batch_jobs_bit_identical(self):
        model = sparse_model()
        serial = run_monte_carlo(model, count=4, seed=17)
        batched = run_monte_carlo(model, count=4, seed=17, batch=4)
        pooled = run_monte_carlo(model, count=4, seed=17, jobs=2)
        np.testing.assert_array_equal(serial.samples, batched.samples)
        np.testing.assert_array_equal(serial.samples, pooled.samples)

    def test_supervised_run_completes(self):
        model = sparse_model()
        policy = SupervisionPolicy(max_sample_seconds=30.0)
        outcome = run_monte_carlo_resumable(model, count=2, seed=21,
                                            policy=policy)
        assert outcome.complete
        assert outcome.result.samples.shape == (2,)


class TestKillResume:
    def test_killed_run_resumes_bit_identically(self, tmp_path):
        """The chaos-kill scenario on the sparse workload: die after
        the first checkpoint save, resume, match the straight run."""
        model = sparse_model()
        ckpt = _KillAfterSaves(tmp_path / "mc.json", "fp", saves=1)
        with pytest.raises(_Killed):
            run_monte_carlo_resumable(model, 4, seed=6, checkpoint=ckpt,
                                      save_every=1)
        saved = Checkpoint(tmp_path / "mc.json", "fp").load()
        assert 0 < saved["next"] < 4  # genuinely partial
        resumed = run_monte_carlo_resumable(
            model, 4, seed=6,
            checkpoint=Checkpoint(tmp_path / "mc.json", "fp"))
        assert resumed.complete
        straight = run_monte_carlo(model, 4, seed=6)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.samples)
