"""Monte-Carlo engine and worst-case estimators.

``run_monte_carlo_resumable`` evaluates a scalar model under sampled
parameters; the worst-case helpers extrapolate to the paper's "6 sigma
worst case", which brute-force sampling cannot reach (P(6 sigma) ~ 1e-9)
— exactly why analytic tail extrapolation on a fitted distribution is
the standard memory-design practice this module implements.

Every run takes one path: each sample is one
:func:`~repro.exec.run_parallel_sweep` work item keyed by its index,
and sample ``i`` always draws from child stream ``i`` of the seed
sequence.  ``jobs`` sets the worker count and ``batch`` the executor's
chunk size.  When the model is a
:class:`~repro.spice.batch.BatchTransientModel`, a chunk of ``batch``
samples is solved in one :func:`~repro.spice.batch.eval_model_batch`
call, which is bit-identical to the per-sample path by construction.
So every ``(jobs, batch)`` setting produces the same statistics and
resumes the same checkpoints.  A model without a batched twin silently
degrades to ``batch=1`` (logged as an ``mc.batch.fallback`` event).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.effects import deterministic_under_seed
from repro.checkpoint import Checkpoint, GrowingList, RunBudget
from repro.errors import ConfigurationError, SimulationError
from repro.exec import SupervisionPolicy, run_parallel_sweep
from repro.spice.batch import BatchTransientModel, eval_model_batch


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Samples plus summary statistics of one MC run."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ConfigurationError("need at least 2 MC samples")

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples, ddof=1))

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    def log_stats(self) -> tuple[float, float]:
        """(mu, sigma) of ln(samples); requires positive samples."""
        if np.any(self.samples <= 0):
            raise ConfigurationError("log statistics need positive samples")
        logs = np.log(self.samples)
        return float(np.mean(logs)), float(np.std(logs, ddof=1))


def _child_sequence(root: np.random.SeedSequence,
                    index: int) -> np.random.SeedSequence:
    """Child stream ``index`` of ``root``, exactly as ``root.spawn``
    builds it, without building the children before it."""
    return np.random.SeedSequence(root.entropy,
                                  spawn_key=root.spawn_key + (index,),
                                  pool_size=root.pool_size)


class _Sample:
    """One sample as an executor work function: ``model`` on child
    stream ``index`` of the root seed sequence (picklable, so workers
    can run it; an item carries only its index)."""

    def __init__(self, model: Callable[[np.random.Generator], float],
                 root: np.random.SeedSequence) -> None:
        self.model = model
        self.root = root

    @deterministic_under_seed
    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(_child_sequence(self.root, index))

    @deterministic_under_seed
    def __call__(self, index: int) -> float:
        return float(self.model(self.rng(index)))


class _BatchSample(_Sample):
    """A sample of a :class:`BatchTransientModel`: the executor hands a
    whole chunk to :meth:`chunk`, which solves it as one batch and
    reports an ``(ok, value_or_error)`` pair per sample."""

    @deterministic_under_seed
    def chunk(self, args: List[Tuple[int]]) -> List[Tuple[bool, object]]:
        return eval_model_batch(
            self.model, [self.rng(index) for (index,) in args])


class _Items(collections.abc.Sequence):
    """The work items ``(str(i), sample, (i,))`` for ``i`` in
    ``[start, stop)``, built on demand (the executor holds only the
    chunks in flight)."""

    def __init__(self, sample: _Sample, start: int, stop: int) -> None:
        self._sample = sample
        self._indexes = range(start, stop)

    def __len__(self) -> int:
        return len(self._indexes)

    def __getitem__(self, position: int) -> Tuple[str, _Sample, Tuple[int]]:
        index = self._indexes[position]
        return str(index), self._sample, (index,)

    def __iter__(self):
        sample = self._sample
        return ((str(index), sample, (index,)) for index in self._indexes)


def _effective_batch(model, batch: int) -> int:
    """Clamp ``batch`` to 1 for models without a batched twin.

    Only a :class:`~repro.spice.batch.BatchTransientModel` carries the
    draw/build/measure decomposition the batched engine needs; any other
    callable runs per-sample exactly as before.  The degradation is
    observable (``mc.batch.fallback``), not an error, so sweep scripts
    can pass ``--batch`` unconditionally.
    """
    if batch < 1:
        raise ConfigurationError("batch must be >= 1")
    if batch > 1 and not isinstance(model, BatchTransientModel):
        obs.metrics().counter("mc.batch.fallback").inc()
        obs.event("mc.batch.fallback", batch=batch,
                  model=type(model).__name__)
        return 1
    return batch


def run_monte_carlo(model: Callable[[np.random.Generator], float],
                    count: int,
                    seed: Optional[int] = 0,
                    jobs: int = 1,
                    batch: int = 1) -> MonteCarloResult:
    """Evaluate ``model`` ``count`` times with independent RNG streams.

    The all-or-nothing form of :func:`run_monte_carlo_resumable` (same
    ``jobs``/``batch`` semantics, same bit-identical samples): the first
    sample that fails stops the run with a
    :class:`~repro.errors.SimulationError` naming its index and error,
    whatever ``jobs`` and ``batch`` are.
    """
    outcome = run_monte_carlo_resumable(model, count, seed=seed, jobs=jobs,
                                        batch=batch,
                                        budget=RunBudget(max_failures=1))
    if outcome.errors:
        index = min(outcome.errors)
        raise SimulationError(
            f"Monte-Carlo sample {index} failed: {outcome.errors[index]}")
    if outcome.result is None or not outcome.complete:
        raise KeyboardInterrupt  # the sweep trapped Ctrl-C or SIGTERM
    return outcome.result


@dataclasses.dataclass(frozen=True)
class MonteCarloOutcome:
    """A (possibly partial) resumable MC run with explicit accounting.

    ``result`` is ``None`` when fewer than 2 samples completed (nothing
    statistical can be said); otherwise it summarises the completed
    samples.  ``completed + failed <= attempted <= requested``; samples
    never attempted (budget ran out first) make up the difference.
    ``errors`` maps the index of every sample that failed in this call
    to its error message.
    """

    result: Optional[MonteCarloResult]
    requested: int
    completed: int
    attempted: int
    failed: int
    exhausted: Optional[str]  # "max_seconds" | "max_failures" | None
    errors: Dict[int, str] = dataclasses.field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.completed == self.requested

    def describe(self) -> str:
        parts = [f"{self.completed}/{self.requested} samples"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.exhausted:
            parts.append(f"stopped on {self.exhausted}")
        return ", ".join(parts)


def _growing(values: list) -> GrowingList:
    return values if isinstance(values, GrowingList) else GrowingList(values)


def _fold(state: dict, done: Dict[str, float], stop: int) -> None:
    """Advance the MC state ``{"next", "samples", "failed"}`` to
    ``stop``: indexes in ``done`` are samples, the rest failed."""
    for index in range(state["next"], stop):
        key = str(index)
        if key in done:
            state["samples"].append(done[key])
        else:
            state["failed"].append(index)
    state["next"] = max(state["next"], stop)


class _Ledger:
    """The MC state as the executor's checkpoint and progress sink.

    The executor merges samples in index order and reports each merged
    sample to :meth:`advance` before any save that includes it, so
    ``merged`` is the index after the newest merged sample and every
    index in ``[next, merged)`` either completed or failed.  Each save
    folds that range into the state (failed indexes too) and writes it
    through ``checkpoint`` when there is one, at every ``jobs`` and
    ``batch`` setting.
    """

    def __init__(self, state: dict, checkpoint: Optional[Checkpoint],
                 progress) -> None:
        self._state = state
        self._checkpoint = checkpoint
        self._progress = progress
        self.merged = state["next"]
        #: ``next`` as the file on disk records it (-1: no file yet).
        self.saved = (state["next"] if checkpoint is not None
                      and checkpoint.exists() else -1)

    def load(self) -> None:
        return None  # the caller already consumed the base state

    def advance(self, completed: int = 0, failed: int = 0) -> None:
        self.merged += completed + failed
        if self._progress is not None:
            self._progress.advance(completed=completed, failed=failed)

    def save(self, done: Dict[str, float]) -> None:
        _fold(self._state, done, self.merged)
        self.saved = self.merged
        if self._checkpoint is not None:
            self._checkpoint.save(self._state)


def run_monte_carlo_resumable(model: Callable[[np.random.Generator], float],
                              count: int,
                              seed: Optional[int] = 0,
                              checkpoint: Optional[Checkpoint] = None,
                              budget: Optional[RunBudget] = None,
                              save_every: int = 64,
                              jobs: int = 1,
                              progress=None,
                              policy: Optional[SupervisionPolicy] = None,
                              batch: int = 1) -> MonteCarloOutcome:
    """Checkpointed, budget-bounded Monte-Carlo run.

    Sample ``i`` always draws from child stream ``i`` of the seed
    sequence, so a run killed mid-sweep and resumed from its checkpoint
    produces *bit-identical* statistics to an uninterrupted run with the
    same seed — at any mix of ``jobs`` and ``batch`` settings, because
    the checkpoint keeps the per-sample schema ``{"next", "samples",
    "failed"}`` and is written only by this process.  A sample whose
    model raises a :class:`~repro.errors.ReproError` (or whose worker
    crashes) is recorded as failed and skipped — deterministically, the
    same seed fails the same sample — counting against
    ``budget.max_failures``.

    With ``jobs > 1`` the samples are evaluated by a process pool (the
    model must be picklable).  ``batch > 1`` solves chunks of ``batch``
    samples together through the batched transient engine when the
    model supports it (module docstring); budgets still stop the run at
    an exact sample.  ``progress`` (a
    :class:`~repro.obs.progress.SweepProgress`) receives
    ``note_restored`` for checkpointed samples and one ``advance`` per
    sample.  A ``policy`` (:class:`~repro.exec.SupervisionPolicy`) adds
    per-sample deadlines, the hang watchdog and seeded retries;
    quarantined samples are counted as failed.
    """
    if count < 2:
        raise ConfigurationError("count must be >= 2")
    if save_every < 1:
        raise ConfigurationError("save_every must be >= 1")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    batch = _effective_batch(model, batch)
    root = np.random.SeedSequence(seed)

    # Samples and failed indexes only grow, so a checkpoint save
    # journals only what is new.  Lists a journal replayed are kept as
    # they are: the next save appends to them.
    state: dict = {"next": 0, "samples": GrowingList(),
                   "failed": GrowingList()}
    if checkpoint is not None:
        loaded = checkpoint.load()
        if loaded:
            state = {"next": int(loaded.get("next", 0)),
                     "samples": _growing(loaded.get("samples", [])),
                     "failed": _growing(loaded.get("failed", []))}
            if progress is not None and state["next"]:
                progress.note_restored(state["next"])

    start = state["next"]
    exhausted: Optional[str] = None
    errors: Dict[int, str] = {}
    if start < count:
        if budget is not None and budget.max_failures is not None:
            budget = RunBudget(
                max_seconds=budget.max_seconds,
                max_failures=budget.max_failures - len(state["failed"]))
        sample = (_BatchSample if batch > 1 else _Sample)(model, root)
        ledger = _Ledger(state, checkpoint, progress)
        outcome = run_parallel_sweep(
            _Items(sample, start, count),
            jobs=jobs, budget=budget, save_every=save_every,
            checkpoint=ledger if checkpoint is not None else None,
            chunk_size=batch if batch > 1 else None,
            progress=ledger, policy=policy)
        if ledger.saved < ledger.merged:
            # One last save for what the sweep's saves did not cover:
            # every sample without a checkpoint, else trailing failures
            # (or an empty state, so a stopped run always leaves a file).
            ledger.save(outcome.results)
        exhausted = outcome.exhausted
        errors = {int(key): message
                  for key, message in outcome.errors.items()}

    samples = np.asarray(state["samples"], dtype=float)
    result = MonteCarloResult(samples=samples) if len(samples) >= 2 else None
    return MonteCarloOutcome(
        result=result,
        requested=count,
        completed=len(samples),
        attempted=state["next"],
        failed=len(state["failed"]),
        exhausted=exhausted,
        errors=errors,
    )


def worst_case_gaussian(result: MonteCarloResult, n_sigma: float,
                        tail: str = "low") -> float:
    """n-sigma worst case assuming a Gaussian population.

    ``tail="low"`` returns the low tail (e.g. slowest retention).
    """
    _check_tail(tail)
    sign = -1.0 if tail == "low" else 1.0
    return result.mean + sign * n_sigma * result.std

def worst_case_lognormal(result: MonteCarloResult, n_sigma: float,
                         tail: str = "low") -> float:
    """n-sigma worst case assuming a lognormal population.

    Retention times (inverse of a lognormal leakage) are lognormal; a
    Gaussian fit would produce negative retention at 6 sigma, which is
    the tell that the lognormal fit is the right one.
    """
    _check_tail(tail)
    mu, sigma = result.log_stats()
    sign = -1.0 if tail == "low" else 1.0
    return math.exp(mu + sign * n_sigma * sigma)


def empirical_quantile(result: MonteCarloResult, quantile: float) -> float:
    """Plain empirical quantile of the samples (for validated regions)."""
    if not 0.0 <= quantile <= 1.0:
        raise ConfigurationError("quantile must lie in [0, 1]")
    return float(np.quantile(result.samples, quantile))


def _check_tail(tail: str) -> None:
    if tail not in ("low", "high"):
        raise ConfigurationError(f"tail must be 'low' or 'high', got {tail!r}")
