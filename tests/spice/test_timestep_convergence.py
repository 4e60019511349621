"""Time-step convergence of every transient workload a result reads.

Each workload runs backward Euler on a fixed grid.  Here each one is
rerun at half its grid, on the quantity it reports, and the two must
agree within a stated relative tolerance:

* ``LocalBlockMcModel`` (1 ps): the LBL/reference signal, DRAM-tech
  '1' on 16 cells and '0' on 32 cells, within 1e-5 (measured 8e-9 to
  9.8e-7);
* ``GlobalBitlineMcModel`` (2 ps): the GBL signal, within 1e-3
  (measured 4.7e-4);
* ``simulate_localblock_read`` (1 ps), the scratch-pad reads of
  ``MethodologyFlow``: ``restored_correctly`` unchanged and
  ``gbl_swing`` within 1e-3 (measured up to 4e-4).

Each grid is read from the code under test, so coarsening one (say
the global bitline to 10 ps) fails here.
"""

import functools
from typing import Dict

import numpy as np
import pytest

from repro import FastDramDesign
from repro.array import localblock
from repro.spice.batch import BatchTransientModel, eval_model_batch
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.localblock_mc import LocalBlockMcModel

_LOCALBLOCK_SEEDS = (0, 1, 2)
_GLOBALBITLINE_SEEDS = (0, 1)


def _rel_diff(coarse: float, fine: float) -> float:
    return abs(coarse - fine) / abs(fine)


def _measure(model: BatchTransientModel, seeds) -> Dict[int, float]:
    """The model's measurement per seed, the seeds solved as one batch."""
    outcomes = eval_model_batch(
        model, [np.random.default_rng(seed) for seed in seeds])
    assert all(ok for ok, _value in outcomes)
    return {seed: value for seed, (_ok, value) in zip(seeds, outcomes)}


@functools.lru_cache(maxsize=None)
def _localblock(stored_value: int, cells: int,
                halved: bool) -> Dict[int, float]:
    model = LocalBlockMcModel(FastDramDesign().cell(), cells_per_lbl=cells,
                              stored_value=stored_value)
    if halved:
        model.dt /= 2
    return _measure(model, _LOCALBLOCK_SEEDS)


@functools.lru_cache(maxsize=None)
def _globalbitline(halved: bool) -> Dict[int, float]:
    model = GlobalBitlineMcModel(FastDramDesign().cell())
    if halved:
        model.dt /= 2
    return _measure(model, _GLOBALBITLINE_SEEDS)


@pytest.mark.parametrize("seed", _LOCALBLOCK_SEEDS)
@pytest.mark.parametrize("stored_value, cells", [(1, 16), (0, 32)])
def test_localblock_mc_signal_converged(stored_value, cells, seed):
    coarse = _localblock(stored_value, cells, False)[seed]
    fine = _localblock(stored_value, cells, True)[seed]
    assert _rel_diff(coarse, fine) <= 1e-5


@pytest.mark.parametrize("seed", _GLOBALBITLINE_SEEDS)
def test_globalbitline_mc_signal_converged(seed):
    coarse = _globalbitline(False)[seed]
    fine = _globalbitline(True)[seed]
    assert _rel_diff(coarse, fine) <= 1e-3


@pytest.mark.parametrize("stored_value", [0, 1])
def test_scratchpad_read_converged(monkeypatch, stored_value):
    design = FastDramDesign(technology="scratchpad")

    def read():
        return localblock.simulate_localblock_read(
            design.cell(), cells_per_lbl=16, stored_value=stored_value)

    coarse = read()
    monkeypatch.setattr(localblock, "_DT", localblock._DT / 2)
    fine = read()
    assert coarse.restored_correctly and fine.restored_correctly
    assert _rel_diff(coarse.gbl_swing, fine.gbl_swing) <= 1e-3
