"""What a checkpointed Monte-Carlo run writes, and what it costs.

A save appends one journal record with only the samples merged since
the previous save, and a run ends with exactly one save covering
everything it merged, trailing failures included.  Costs are counted,
never timed.
"""

from __future__ import annotations

import json
import json.encoder
import os
import stat
import types

import numpy as np
import pytest

from repro.checkpoint import Checkpoint, RunBudget
from repro.errors import SimulationError
from repro.variability.montecarlo import run_monte_carlo_resumable


def normal(rng: np.random.Generator) -> float:
    return float(rng.normal(10.0, 2.0))


class _FailOn:
    """``normal``, failing on the samples whose value is in ``values``."""

    def __init__(self, values) -> None:
        self.values = frozenset(float(value) for value in values)

    def __call__(self, rng: np.random.Generator) -> float:
        value = normal(rng)
        if value in self.values:
            raise SimulationError("poisoned sample")
        return value


class _Recording(Checkpoint):
    """Keeps a copy of every state it writes."""

    def __init__(self, path, fingerprint) -> None:
        super().__init__(path, fingerprint)
        self.states = []

    def save(self, done) -> None:
        super().save(done)
        self.states.append(json.loads(json.dumps(done)))


@pytest.fixture()
def float_encodings(monkeypatch):
    """Count every float the json encoder renders.

    Forces json's pure-Python encoder and routes its ``float.__repr__``
    through a counter, so every float encoded by any ``json.dumps`` is
    counted.
    """
    count = [0]
    real_repr = float.__repr__

    def counting_repr(value: float) -> str:
        count[0] += 1
        return real_repr(value)

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "float",
                        types.SimpleNamespace(__repr__=counting_repr),
                        raising=False)
    return count


def test_float_counter_sees_the_full_encoding(float_encodings):
    json.dumps({"samples": [0.5] * 100}, sort_keys=True)
    assert float_encodings[0] == 100


def test_each_sample_is_encoded_once(tmp_path, float_encodings):
    count, save_every = 10_000, 64
    ckpt = Checkpoint(tmp_path / "mc.json", "fp")
    saves = []
    original = ckpt.save
    ckpt.save = lambda done: (saves.append(done["next"]), original(done))
    outcome = run_monte_carlo_resumable(normal, count, seed=1,
                                        checkpoint=ckpt,
                                        save_every=save_every)
    assert outcome.complete
    assert len(saves) == -(-count // save_every)  # 157: no duplicate
    # Re-serialising every save would encode ~1.6 million floats.
    assert float_encodings[0] == count


def test_each_save_appends_one_record_with_one_fsync(tmp_path,
                                                    monkeypatch):
    count, save_every = 10_000, 64
    fsyncs = {"file": 0, "directory": 0}
    appended = [0]
    real_fsync, real_write = os.fsync, os.write

    def counting_fsync(fd: int) -> None:
        kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        fsyncs[kind] += 1
        real_fsync(fd)

    def counting_write(fd: int, data) -> int:
        written = real_write(fd, data)
        appended[0] += written
        return written

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "write", counting_write)
    ckpt = Checkpoint(tmp_path / "mc.json", "fp")
    sizes = []
    original = ckpt.save
    ckpt.save = lambda done: (original(done),
                              sizes.append(ckpt.path.stat().st_size))
    run_monte_carlo_resumable(normal, count, seed=1, checkpoint=ckpt,
                              save_every=save_every)
    saves = -(-count // save_every)
    assert len(sizes) == saves
    # The first save creates the file (and fsyncs its directory); every
    # other save is one appended record and one fsync.
    assert fsyncs == {"file": saves, "directory": 1}
    assert ckpt.path.read_bytes().count(b"\n") == 1 + saves
    # Append-only: the file is every byte the run wrote, O(samples).
    assert sizes[0] + appended[0] == sizes[-1]
    assert sizes[-1] <= 24 * count + 128 * saves


def test_final_state_is_written_once(tmp_path):
    ckpt = _Recording(tmp_path / "mc.json", "fp")
    run_monte_carlo_resumable(normal, 10, seed=2, checkpoint=ckpt,
                              save_every=4)
    assert [state["next"] for state in ckpt.states] == [4, 8, 10]


def test_trailing_failures_fold_into_one_last_save(tmp_path):
    values = run_monte_carlo_resumable(normal, 20, seed=0).result.samples
    ckpt = _Recording(tmp_path / "mc.json", "fp")
    outcome = run_monte_carlo_resumable(_FailOn(values[18:]), 20, seed=0,
                                        checkpoint=ckpt, save_every=6)
    assert outcome.failed == 2
    assert [state["next"] for state in ckpt.states] == [6, 12, 18, 20]
    assert ckpt.states[-1]["failed"] == [18, 19]
    assert ckpt.states[-1] == Checkpoint(tmp_path / "mc.json", "fp").load()


def test_stopped_run_with_no_progress_leaves_a_checkpoint(tmp_path):
    ckpt = Checkpoint(tmp_path / "mc.json", "fp")
    outcome = run_monte_carlo_resumable(normal, 10, seed=2, checkpoint=ckpt,
                                        budget=RunBudget(max_seconds=0.0))
    assert outcome.attempted == 0
    assert ckpt.load() == {"next": 0, "samples": [], "failed": []}
