"""Checkpoint file format: the schema-3 journal, byte for byte.

A file is a header line ``{"schema": 3, "fingerprint": ...}`` and one
``<digest> <json>`` record per save, holding only what changed since
the previous save.  Loading replays the records into exactly the
``done`` a schema-2 snapshot of the same state held; a torn last record
is cut off and the run resumes from the previous save, a bad earlier
record quarantines the file, and schema-1/2 snapshots still resume.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import Checkpoint, GrowingList
from repro.errors import SimulationError
from repro.variability.montecarlo import run_monte_carlo_resumable

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0, 1.0, 0.1,
           1e308, -2.5e-7, 123456789.125]

HEADER = b'{"schema": 3, "fingerprint": "fp"}\n'


def record(ops) -> bytes:
    body = json.dumps(ops, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()[:32].encode("ascii")
    return digest + b" " + body + b"\n"


def snapshot_text(done) -> str:
    """What a schema-2 snapshot stored for ``done``."""
    return json.dumps(done, sort_keys=True)


class TestJournalLayout:
    def test_each_save_appends_only_what_changed(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        state = {"next": 0, "samples": GrowingList(), "failed": GrowingList()}
        expected = HEADER
        for round_ in range(3):
            state["samples"].extend(SPECIAL[round_::2])
            state["failed"].append(round_)
            state["next"] += 1
            before = len(state["samples"]) - len(SPECIAL[round_::2])
            ckpt.save(state)
            grow = {"failed": [round_, [round_]],
                    "samples": [before, SPECIAL[round_::2]]}
            expected += record({"grow": grow, "set": {"next": round_ + 1}})
            assert ckpt.path.read_bytes() == expected
            assert (snapshot_text(Checkpoint(ckpt.path, "fp").load())
                    == snapshot_text(state))

    def test_unchanged_state_writes_nothing(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        ckpt.save({"a": 1, "b": [2, 3]})
        size = ckpt.path.stat().st_size
        ckpt.save({"a": 1, "b": [2, 3]})  # equal values: no record
        assert ckpt.path.stat().st_size == size

    def test_replaced_and_dropped_keys_replay(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        ckpt.save({"a": 1, "b": 2, "g": GrowingList([1.0])})
        ckpt.save({"a": 3, "c": [4], "g": GrowingList([5.0])})
        lines = ckpt.path.read_bytes().split(b"\n")
        assert lines[2] + b"\n" == record({"drop": {"b": None},
                                           "grow": {"g": [0, [5.0]]},
                                           "set": {"a": 3, "c": [4]}})
        assert Checkpoint(ckpt.path, "fp").load() == {"a": 3, "c": [4],
                                                      "g": [5.0]}

    def test_signed_zero_and_subnormal_survive_a_round_trip(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        ckpt.save({"samples": GrowingList([-0.0, 5e-324])})
        negative_zero, tiny = ckpt.load()["samples"]
        assert math.copysign(1.0, negative_zero) == -1.0
        assert tiny == 5e-324

    def test_nested_and_non_string_keys_load_like_a_snapshot(self,
                                                             tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        done = {"b": {"z": 1, "a": [1, "x", None, True]}, "a": 2.5,
                "k": GrowingList([{"y": 1, "x": 2}, "s", 3])}
        ckpt.save(done)
        loaded = Checkpoint(ckpt.path, "fp").load()
        assert loaded == json.loads(snapshot_text(done))
        # Keys come back in the snapshot's (sorted) order, nested too.
        assert list(loaded) == ["a", "b", "k"]
        assert list(loaded["b"]) == ["a", "z"]
        ckpt = Checkpoint(tmp_path / "ints.json", "fp")
        ckpt.save({2: "two", 10: "ten"})  # int keys: json's own rendering
        assert ckpt.load() == {"10": "ten", "2": "two"}

    def test_only_creating_a_file_renames(self, tmp_path, monkeypatch):
        renames = []
        real = os.replace
        monkeypatch.setattr(os, "replace",
                            lambda *a: (renames.append(a), real(*a)))
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        values = GrowingList()
        for value in range(5):
            values.append(value)
            ckpt.save({"v": values})
        assert len(renames) == 1
        assert not list(tmp_path.glob("*.tmp"))


def normal(rng: np.random.Generator) -> float:
    return float(rng.normal(10.0, 2.0))


def flaky(rng: np.random.Generator) -> float:
    value = float(rng.normal(10.0, 2.0))
    if value < 10.0:
        raise SimulationError("rejected sample")
    return value


class _Killed(BaseException):
    """Simulated kill; BaseException so no handler can swallow it."""


class _Recording(Checkpoint):
    """Keeps the file and the state after every save; dies after
    ``saves`` of them."""

    def __init__(self, path, fingerprint, saves: int) -> None:
        super().__init__(path, fingerprint)
        self.saves = saves
        self.files, self.states = [], []

    def save(self, done) -> None:
        super().save(done)
        self.files.append(self.path.read_bytes())
        self.states.append(snapshot_text(done))
        if len(self.files) == self.saves:
            raise _Killed


class TestTornTail:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), save_every=st.integers(1, 4),
           saves=st.integers(2, 5))
    def test_any_cut_inside_the_last_record_resumes_from_the_previous_save(
            self, tmp_path_factory, seed, save_every, saves):
        count = save_every * saves + 3
        path = tmp_path_factory.mktemp("torn") / "mc.json"
        ckpt = _Recording(path, "fp", saves)
        with pytest.raises(_Killed):
            run_monte_carlo_resumable(normal, count, seed=seed,
                                      save_every=save_every, checkpoint=ckpt)
        previous, full = ckpt.files[-2], ckpt.files[-1]
        sidecar = path.with_name(path.name + ".corrupt")
        for cut in range(len(previous), len(full)):
            path.write_bytes(full[:cut])
            sidecar.unlink(missing_ok=True)
            loaded = Checkpoint(path, "fp").load()
            assert snapshot_text(loaded) == ckpt.states[-2]
            assert path.read_bytes() == previous
            assert sidecar.exists() == (cut > len(previous))
        resumed = run_monte_carlo_resumable(normal, count, seed=seed,
                                            checkpoint=Checkpoint(path, "fp"))
        reference = run_monte_carlo_resumable(normal, count, seed=seed)
        assert (resumed.result.samples.tobytes()
                == reference.result.samples.tobytes())


class TestQuarantine:
    def _saved(self, tmp_path, saves: int = 3) -> Checkpoint:
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        state = {"next": 0, "samples": GrowingList(), "failed": GrowingList()}
        for index in range(saves):
            state["samples"].append(index + 0.5)
            state["next"] += 1
            ckpt.save(state)
        return ckpt

    def _sidecar(self, ckpt):
        return ckpt.path.with_name(ckpt.path.name + ".corrupt")

    def test_bad_digest_in_a_middle_record_quarantines(self, tmp_path):
        ckpt = self._saved(tmp_path)
        lines = ckpt.path.read_bytes().split(b"\n")
        lines[2] = b"0" * 32 + lines[2][32:]
        ckpt.path.write_bytes(b"\n".join(lines))
        assert ckpt.load() is None
        assert self._sidecar(ckpt).exists()
        assert not ckpt.exists()

    def test_decayed_middle_record_quarantines(self, tmp_path):
        ckpt = self._saved(tmp_path)
        ckpt.path.write_bytes(ckpt.path.read_bytes().replace(b"1.5", b"1.6"))
        assert ckpt.load() is None
        assert not ckpt.exists()

    def test_garbage_header_quarantines(self, tmp_path):
        ckpt = self._saved(tmp_path)
        ckpt.path.write_bytes(b"#!" + ckpt.path.read_bytes())
        assert ckpt.load() is None
        assert self._sidecar(ckpt).exists()

    def test_undecodable_bytes_quarantine(self, tmp_path):
        ckpt = self._saved(tmp_path)
        ckpt.path.write_bytes(ckpt.path.read_bytes() + b"\xff\xfe")
        assert ckpt.load() is None
        assert not ckpt.exists()

    def test_damaged_last_record_is_cut_off(self, tmp_path):
        ckpt = self._saved(tmp_path)
        lines = ckpt.path.read_bytes().split(b"\n")
        lines[-2] = b"f" * 32 + lines[-2][32:]
        ckpt.path.write_bytes(b"\n".join(lines))
        loaded = ckpt.load()
        assert loaded == {"next": 2, "samples": [0.5, 1.5], "failed": []}
        assert self._sidecar(ckpt).read_bytes() == lines[-2] + b"\n"


#: Written by the ``json.dump`` layout schema 2 had before saves
#: rendered ``done`` canonically (insertion-ordered ``done``), from a
#: ``flaky`` run at seed 5, killed after its 2nd save at save_every=3.
GOLDEN_SCHEMA2 = (
    '{"schema": 2, "fingerprint": "fp-golden", "checksum": '
    '"e86c46109679f9320aa3530dcc9d8990", "done": {"next": 11, "samples": '
    '[11.311384722820758, 10.993257655680063, 12.812212920466393, '
    '11.311041557560184, 13.616663630172404, 10.413695642412202], '
    '"failed": [0, 1, 2, 3, 6]}}')


class TestResumeOlderFiles:
    @pytest.fixture(scope="class")
    def straight(self):
        return run_monte_carlo_resumable(flaky, 24, seed=5)

    def _resume(self, path):
        return run_monte_carlo_resumable(
            flaky, 24, seed=5, checkpoint=Checkpoint(path, "fp-golden"))

    def _assert_journal(self, path, straight):
        """The resumed run's save turned the snapshot into a journal
        holding the finished state."""
        assert path.read_bytes().startswith(
            b'{"schema": 3, "fingerprint": "fp-golden"}\n')
        final = Checkpoint(path, "fp-golden").load()
        assert final["samples"] == list(straight.result.samples)
        assert final["next"] == 24

    def test_golden_schema2_file_resumes_bit_identically(self, tmp_path,
                                                         straight):
        path = tmp_path / "golden.json"
        path.write_text(GOLDEN_SCHEMA2)
        resumed = self._resume(path)
        assert (resumed.completed, resumed.failed) == (11, 13)
        assert (resumed.completed, resumed.failed) == (straight.completed,
                                                       straight.failed)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.result.samples)
        self._assert_journal(path, straight)

    def test_schema1_file_resumes_bit_identically(self, tmp_path, straight):
        payload = json.loads(GOLDEN_SCHEMA2)
        del payload["checksum"]
        payload["schema"] = 1
        path = tmp_path / "schema1.json"
        path.write_text(json.dumps(payload))
        resumed = self._resume(path)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.result.samples)
        assert resumed.failed == straight.failed
        self._assert_journal(path, straight)
