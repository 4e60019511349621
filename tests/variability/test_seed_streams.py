"""Sample ``i`` draws from child ``i`` of the seed, derived from ``i``.

Work items carry only the sample index; the child stream is rebuilt
where it is used as ``SeedSequence(root.entropy, spawn_key=
root.spawn_key + (i,), pool_size=root.pool_size)``.  That must be the
stream ``SeedSequence(seed).spawn(count)[i]`` would hand out, so the
samples, and the end-to-end benchmark's reference statistics, do not
change at any ``(jobs, batch)`` setting.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FastDramDesign
from repro.variability.localblock_mc import LocalBlockMcModel
from repro.variability.montecarlo import (_child_sequence,
                                          run_monte_carlo_resumable,
                                          worst_case_gaussian,
                                          worst_case_lognormal)

REFERENCE = (pathlib.Path(__file__).resolve().parents[2]
             / "benchmarks" / "e2e" / "reference.json")

#: Indexes below this are checked against a literal ``spawn(index + 1)``.
LITERAL_SPAWN_LIMIT = 2048

seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**128))


@settings(max_examples=80, deadline=None)
@given(seed=seeds, index=st.integers(min_value=0, max_value=10**6))
def test_index_derived_child_matches_spawn(seed, index):
    root = np.random.SeedSequence(seed)
    derived = _child_sequence(root, index).generate_state(4)
    # spawn(count)[index] without building the children before it:
    # spawn numbers its children from n_children_spawned on.
    skipped = np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size,
        n_children_spawned=index).spawn(1)[0]
    np.testing.assert_array_equal(derived, skipped.generate_state(4))
    if index < LITERAL_SPAWN_LIMIT:
        spawned = root.spawn(index + 1)[index]
        np.testing.assert_array_equal(derived, spawned.generate_state(4))


def test_nested_root_keeps_its_spawn_key():
    for index in (0, 5, 999):
        root = np.random.SeedSequence(7).spawn(3)[2]  # spawn() advances it
        np.testing.assert_array_equal(
            _child_sequence(root, index).generate_state(4),
            root.spawn(index + 1)[index].generate_state(4))


def _stats(outcome, lognormal: bool):
    result = outcome.result
    worst = (worst_case_lognormal(result, 6.0) if lognormal
             else worst_case_gaussian(result, 6.0))
    return {"completed": outcome.completed, "failed": outcome.failed,
            "median": result.median, "mean": result.mean,
            "std": result.std, "worst_6sigma": worst}


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("jobs,batch", [(1, 1), (1, 4), (2, 1), (2, 4)])
@pytest.mark.parametrize("workload,profile", [("mc-localblock", "smoke"),
                                              ("mc-retention-ckpt", "full")])
def test_reference_statistics_at_every_setting(reference, workload, profile,
                                               jobs, batch):
    """The benchmark's committed seed-2009 statistics: 4 transistor-level
    samples, 10,000 retention samples."""
    expected = reference[profile][workload]
    cell = FastDramDesign().cell()
    if workload == "mc-localblock":
        model, lognormal = LocalBlockMcModel(cell), False
    else:
        model, lognormal = cell.retention_model().sample_retention, True
    outcome = run_monte_carlo_resumable(model, int(expected["completed"]),
                                        seed=2009, jobs=jobs, batch=batch)
    got = _stats(outcome, lognormal)
    for key, value in expected.items():
        assert math.isclose(got[key], value, rel_tol=1e-9, abs_tol=0.0), key
