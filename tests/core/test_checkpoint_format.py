"""Checkpoint file format: one canonical rendering, schema 2 unchanged.

``Checkpoint.save`` renders ``done`` once and hashes that same text, and
a :class:`GrowingList` renders from its cached text.  Whatever the
rendering path, a file must satisfy the schema-2 rule
``checksum == sha256(json.dumps(done, sort_keys=True))[:32]``, and files
written by the earlier ``json.dump`` layout (schema 2) or without a
checksum (schema 1) must still resume bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import Checkpoint, GrowingList
from repro.errors import SimulationError
from repro.variability.montecarlo import run_monte_carlo_resumable

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0, 1.0, 0.1,
           1e308, -2.5e-7, 123456789.125]


def schema2_checksum(done) -> str:
    canonical = json.dumps(done, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def plain(done):
    """``done`` with every GrowingList turned back into a list."""
    return {key: list(value) if isinstance(value, list) else value
            for key, value in done.items()}


class TestCanonicalRendering:
    def test_special_floats_follow_the_schema2_rule(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        state = {"next": 0, "samples": GrowingList(), "failed": GrowingList()}
        for round_ in range(3):  # grow between saves: cached text is reused
            state["samples"].extend(SPECIAL[round_::2])
            state["failed"].append(round_)
            state["next"] += 1
            ckpt.save(state)
            text = ckpt.path.read_text()
            expected = plain(state)
            # The exact schema-2 layout, `done` in its canonical form.
            assert text == (
                '{"schema": 2, "fingerprint": "fp", "checksum": "'
                + schema2_checksum(expected) + '", "done": '
                + json.dumps(expected, sort_keys=True) + "}")
            payload = json.loads(text)
            assert payload["checksum"] == schema2_checksum(payload["done"])
            assert (json.dumps(ckpt.load(), sort_keys=True)
                    == json.dumps(expected, sort_keys=True))

    def test_signed_zero_and_subnormal_survive_a_round_trip(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        ckpt.save({"samples": GrowingList([-0.0, 5e-324])})
        negative_zero, tiny = ckpt.load()["samples"]
        assert math.copysign(1.0, negative_zero) == -1.0
        assert tiny == 5e-324

    def test_nested_and_non_string_keys_match_json(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        for done in ({"b": {"z": 1, "a": [1, "x", None, True]}, "a": 2.5},
                     {"k": GrowingList([{"y": 1, "x": 2}, "s", 3])}):
            ckpt.save(done)
            payload = json.loads(ckpt.path.read_text())
            assert payload["checksum"] == schema2_checksum(plain(done))
        ckpt.save({2: "two", 10: "ten"})  # int keys: json's own rendering
        payload = json.loads(ckpt.path.read_text())
        assert payload["done"] == {"2": "two", "10": "ten"}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                             max_size=8), max_size=6))
    def test_growing_list_text_equals_json(self, batches):
        values = GrowingList()
        for batch in batches:
            values.extend(batch)
            assert values.json_text() == json.dumps(list(values),
                                                    sort_keys=True)


#: Written by the ``json.dump`` layout this format had before saves
#: rendered ``done`` canonically (insertion-ordered ``done``), from a
#: ``flaky`` run at seed 5, killed after its 2nd save at save_every=3.
GOLDEN_SCHEMA2 = (
    '{"schema": 2, "fingerprint": "fp-golden", "checksum": '
    '"e86c46109679f9320aa3530dcc9d8990", "done": {"next": 11, "samples": '
    '[11.311384722820758, 10.993257655680063, 12.812212920466393, '
    '11.311041557560184, 13.616663630172404, 10.413695642412202], '
    '"failed": [0, 1, 2, 3, 6]}}')


def flaky(rng: np.random.Generator) -> float:
    value = float(rng.normal(10.0, 2.0))
    if value < 10.0:
        raise SimulationError("rejected sample")
    return value


class TestResumeOlderFiles:
    @pytest.fixture(scope="class")
    def straight(self):
        return run_monte_carlo_resumable(flaky, 24, seed=5)

    def _resume(self, path):
        return run_monte_carlo_resumable(
            flaky, 24, seed=5, checkpoint=Checkpoint(path, "fp-golden"))

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


class TestQuarantine:
    def _saved(self, tmp_path) -> Checkpoint:
        ckpt = Checkpoint(tmp_path / "c.json", "fp")
        ckpt.save({"next": 3, "samples": GrowingList([1.5, 2.5, 3.5]),
                   "failed": GrowingList()})
        return ckpt

    def test_torn_file_is_quarantined(self, tmp_path):
        ckpt = self._saved(tmp_path)
        text = ckpt.path.read_text()
        ckpt.path.write_text(text[:len(text) // 2])
        assert ckpt.load() is None
        assert ckpt.path.with_name("c.json.corrupt").exists()
        assert not ckpt.exists()

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        ckpt = self._saved(tmp_path)
        ckpt.path.write_text(ckpt.path.read_text().replace("2.5", "2.6"))
        assert ckpt.load() is None
        assert ckpt.path.with_name("c.json.corrupt").exists()
