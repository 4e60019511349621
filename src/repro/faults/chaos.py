"""Process-level chaos harness: prove the supervised executor's
guarantees under injected operational faults.

PR 3's fault layer breaks the *models* (weak cells, dropped refreshes);
this module breaks the *machinery running them*: workers are killed
mid-sample, hung forever, slowed down, made to raise once; checkpoint
files are torn mid-write or corrupted; the JSONL event sink runs out
of disk.  Every injection is drawn from a seeded :class:`ChaosPlan`,
so a chaos run is exactly as replayable as the sweep it attacks.

The harness then checks the promises the sweep executor makes under
a :class:`~repro.exec.SupervisionPolicy` (:mod:`repro.exec`):

* **zero silently-lost samples** — every key ends up in ``results``,
  ``failures`` or ``quarantined``;
* **bit-identical survivors** — every completed sample equals the
  fault-free serial run (the retry path recomputes from the sample's
  own seed stream, so a second attempt cannot drift);
* **enumerated quarantine** — samples the supervisor gave up on are
  named, not dropped.

Injection mechanics: faults that must fire *exactly once* per sample
(kill, hang, flaky) claim a marker file in the plan's scratch
directory before striking.  The marker survives the worker's death, so
the retried attempt sees it and runs clean — which is precisely what
makes "fails once, succeeds on retry, bit-identical" testable.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import pathlib
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.checkpoint import Checkpoint
from repro.errors import ConfigurationError, SimulationError
from repro.exec import SupervisionPolicy, run_parallel_sweep

#: Scenario names accepted by :func:`run_chaos_scenario` (and the
#: ``repro chaos --scenario`` flag; ``matrix`` runs them all).
CHAOS_SCENARIOS = ("kill", "hang", "slow", "flaky", "torn-checkpoint",
                   "disk-full")

_CHECKPOINT_CORRUPTIONS = ("torn", "garbage", "checksum")


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """What the harness breaks, drawn once from a seed.

    The four key sets are disjoint; ``scratch_dir`` holds the
    once-only strike markers (it must outlive the worker processes).
    """

    seed: int
    scratch_dir: str
    kill_keys: Tuple[str, ...] = ()
    hang_keys: Tuple[str, ...] = ()
    slow_keys: Tuple[str, ...] = ()
    flaky_keys: Tuple[str, ...] = ()
    hang_sleep_seconds: float = 30.0
    slow_seconds: float = 0.2

    def describe(self) -> str:
        parts = []
        for label, keys in (("kill", self.kill_keys),
                            ("hang", self.hang_keys),
                            ("slow", self.slow_keys),
                            ("flaky", self.flaky_keys)):
            if keys:
                parts.append(f"{label}: {', '.join(keys)}")
        return (f"chaos plan (seed {self.seed}): "
                + ("; ".join(parts) if parts else "no injections"))


def generate_chaos_plan(keys: Sequence[str],
                        seed: int,
                        scratch_dir: "str | pathlib.Path",
                        kills: int = 0,
                        hangs: int = 0,
                        slows: int = 0,
                        flakies: int = 0,
                        hang_sleep_seconds: float = 30.0,
                        slow_seconds: float = 0.2) -> ChaosPlan:
    """Draw disjoint victim sets from the key population, seeded."""
    need = kills + hangs + slows + flakies
    if need > len(keys):
        raise ConfigurationError(
            f"chaos plan needs {need} victims but only {len(keys)} keys")
    order = np.random.default_rng(seed).permutation(len(keys))
    picked = [keys[int(i)] for i in order[:need]]
    cuts = np.cumsum([kills, hangs, slows, flakies])
    return ChaosPlan(
        seed=seed,
        scratch_dir=str(scratch_dir),
        kill_keys=tuple(picked[:cuts[0]]),
        hang_keys=tuple(picked[cuts[0]:cuts[1]]),
        slow_keys=tuple(picked[cuts[1]:cuts[2]]),
        flaky_keys=tuple(picked[cuts[2]:cuts[3]]),
        hang_sleep_seconds=hang_sleep_seconds,
        slow_seconds=slow_seconds,
    )


class _ChaosCall:
    """Picklable wrapper that injects the plan's fault for one key,
    then delegates to the real evaluator.

    Kill/hang/flaky strike **once** (marker-file claim); slow applies
    to every attempt — slowness is a property of the sample, not an
    event.
    """

    __slots__ = ("plan", "key", "fn")

    def __init__(self, plan: ChaosPlan, key: str,
                 fn: Callable[..., Any]) -> None:
        self.plan = plan
        self.key = key
        self.fn = fn

    def _strike(self, kind: str) -> bool:
        """Claim the once-only marker; True exactly once per (key, kind)."""
        marker = (pathlib.Path(self.plan.scratch_dir)
                  / f"{self.key}.{kind}.struck")
        try:
            marker.touch(exist_ok=False)
        except (FileExistsError, OSError):
            return False
        return True

    def __call__(self, *args: Any) -> Any:
        plan = self.plan
        if self.key in plan.kill_keys and self._strike("kill"):
            os._exit(113)  # simulate a segfault: no cleanup, no excuse
        if self.key in plan.hang_keys and self._strike("hang"):
            time.sleep(plan.hang_sleep_seconds)
        if self.key in plan.flaky_keys and self._strike("flaky"):
            raise SimulationError(
                f"chaos: injected transient failure for {self.key}")
        if self.key in plan.slow_keys:
            time.sleep(plan.slow_seconds)
        return self.fn(*args)


def _chaos_eval(child: np.random.SeedSequence) -> float:
    """The workload under attack: one draw from the sample's own
    stream, so any recomputation is bit-identical by construction.
    Emits one event per sample (a no-op unless instrumented) so the
    disk-full scenario has telemetry flowing through the sink."""
    value = float(np.random.default_rng(child).normal(10.0, 2.0))
    obs.event("chaos.sample.evaluated", value=round(value, 9))
    return value


# -- checkpoint & sink corruption ------------------------------------------


def corrupt_checkpoint(path: "str | pathlib.Path",
                       mode: str = "torn") -> None:
    """Damage a checkpoint file the way real failures do.

    ``torn``
        Cut a journal (schema 3) inside its last record, never on a line
        boundary — an append cut off by a kill or power loss; cut a
        schema-1/2 snapshot to half its bytes (invalid JSON).
    ``garbage``
        Replace the content with non-JSON bytes — gross corruption.
    ``checksum``
        Flip every hex digit of the first record's digest (journal) or
        of the snapshot's content checksum (schema 2) — the payload
        silently decayed after an intact write.  A journal of several
        records is then quarantined on load; a lone record is cut off
        like a torn one.

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    mode and when the mode changed no byte (``checksum`` on a schema-1
    file, which has no checksum).
    """
    target = pathlib.Path(path)
    if mode not in _CHECKPOINT_CORRUPTIONS:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; "
            f"choose from {_CHECKPOINT_CORRUPTIONS}")
    data = target.read_bytes()
    lines = data.split(b"\n")
    # A journal is a header line and newline-terminated records; a
    # snapshot is one line of JSON.
    journal = len(lines) > 2 and not lines[-1]
    if mode == "garbage":
        damaged = b"\x00corrupt\xff" + data[:8]
    elif mode == "torn" and journal:
        start = len(data) - len(lines[-2]) - 1  # the last record
        damaged = data[:start + max(1, len(lines[-2]) // 2)]
    elif mode == "torn":
        damaged = data[:max(1, len(data) // 2)]
    else:
        start = len(lines[0]) + 1  # the first record's digest
        if not journal:
            marker = b'"checksum": "'
            found = data.find(marker)
            start = found + len(marker) if found >= 0 else len(data)
        end = start + 32
        damaged = (data[:start] + data[start:end].translate(_FLIP_HEX)
                   + data[end:])
    if damaged == data:
        raise ConfigurationError(
            f"corruption mode {mode!r} changes no byte of {target}")
    target.write_bytes(damaged)


#: Maps each lower-case hex digit to a different one.
_FLIP_HEX = bytes.maketrans(b"0123456789abcdef", b"fedcba9876543210")


class _DiskFullSink:
    """File-like that fails every write with ENOSPC (disk full)."""

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, "No space left on device (injected)")

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def fill_event_sink(log: "obs.EventLog") -> None:
    """Swap the log's JSONL sink for one whose disk is full.

    The next emitted event must degrade the log to in-memory-only
    (counted in ``sink_errors``) instead of killing the run.
    """
    sink, log._sink = log._sink, _DiskFullSink()
    if sink is not None:
        sink.close()


# -- scenario runner --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos scenario against the supervised executor."""

    scenario: str
    requested: int
    completed: int
    failures: Tuple[str, ...]
    quarantined: Tuple[str, ...]
    lost: Tuple[str, ...]        # keys missing from every accounting bin
    mismatched: Tuple[str, ...]  # survivors differing from fault-free run
    notes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """The gate CI holds: nothing lost, nothing drifted."""
        return not self.lost and not self.mismatched

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        parts = [f"chaos[{self.scenario}] {verdict}: "
                 f"{self.completed}/{self.requested} completed"]
        if self.failures:
            parts.append(f"failed: {', '.join(self.failures)}")
        if self.quarantined:
            parts.append(f"quarantined: {', '.join(self.quarantined)}")
        if self.lost:
            parts.append(f"LOST: {', '.join(self.lost)}")
        if self.mismatched:
            parts.append(f"MISMATCH: {', '.join(self.mismatched)}")
        parts.extend(self.notes)
        return "; ".join(parts)


def _chaos_items(count: int, seed: int,
                 plan: Optional[ChaosPlan] = None) -> List[Tuple]:
    children = np.random.SeedSequence(seed).spawn(count)
    items: List[Tuple] = []
    for index, child in enumerate(children):
        key = f"s{index:02d}"
        fn: Callable[..., Any] = _chaos_eval
        if plan is not None:
            fn = _ChaosCall(plan, key, _chaos_eval)
        items.append((key, fn, (child,)))
    return items


def _reference_results(count: int, seed: int) -> Dict[str, float]:
    """The fault-free ``--jobs 1`` truth every survivor must equal."""
    return dict(run_parallel_sweep(_chaos_items(count, seed),
                                   jobs=1).results)


def _report(scenario: str, count: int, outcome,
            reference: Dict[str, float],
            notes: Sequence[str] = ()) -> ChaosReport:
    accounted = (set(outcome.results) | set(outcome.failures)
                 | set(outcome.quarantined))
    lost = tuple(sorted(set(reference) - accounted))
    mismatched = tuple(sorted(
        key for key, value in outcome.results.items()
        if reference.get(key) != value))
    return ChaosReport(
        scenario=scenario,
        requested=count,
        completed=outcome.completed,
        failures=tuple(outcome.failures),
        quarantined=tuple(outcome.quarantined),
        lost=lost,
        mismatched=mismatched,
        notes=tuple(notes),
    )


def run_chaos_scenario(scenario: str,
                       count: int = 12,
                       seed: int = 2009,
                       jobs: int = 2,
                       workdir: "str | pathlib.Path | None" = None
                       ) -> ChaosReport:
    """Run one seeded process-level chaos scenario end to end.

    Builds the fault-free serial reference, injects the scenario's
    faults into a supervised ``jobs``-wide sweep of the same items, and
    reports lost/mismatched/quarantined keys.  ``workdir`` (a temp
    directory by default) holds strike markers, checkpoint files and
    the event sink.
    """
    if scenario not in CHAOS_SCENARIOS:
        raise ConfigurationError(
            f"unknown chaos scenario {scenario!r}; "
            f"choose from {CHAOS_SCENARIOS}")
    if count < 2:
        raise ConfigurationError("count must be >= 2")
    base = pathlib.Path(workdir) if workdir is not None else pathlib.Path(
        tempfile.mkdtemp(prefix="repro-chaos-"))
    scratch = base / scenario
    scratch.mkdir(parents=True, exist_ok=True)

    reference = _reference_results(count, seed)
    policy = SupervisionPolicy(max_sample_seconds=60.0,
                               hang_seconds=0.75,
                               max_retries=2, seed=seed)

    if scenario == "torn-checkpoint":
        return _run_torn_checkpoint(scenario, count, seed, jobs, scratch,
                                    reference, policy)
    if scenario == "disk-full":
        return _run_disk_full(scenario, count, seed, jobs, scratch,
                              reference, policy)

    kwargs = {"kill": {"kills": 2}, "hang": {"hangs": 1},
              "slow": {"slows": 3}, "flaky": {"flakies": 2}}[scenario]
    plan = generate_chaos_plan([f"s{i:02d}" for i in range(count)],
                               seed=seed, scratch_dir=scratch,
                               hang_sleep_seconds=30.0,
                               slow_seconds=0.2, **kwargs)
    outcome = run_parallel_sweep(_chaos_items(count, seed, plan),
                                 jobs=jobs, policy=policy)
    return _report(scenario, count, outcome, reference,
                   notes=(plan.describe(),))


def _run_torn_checkpoint(scenario: str, count: int, seed: int, jobs: int,
                         scratch: pathlib.Path,
                         reference: Dict[str, float],
                         policy: SupervisionPolicy) -> ChaosReport:
    """Half a sweep, a torn checkpoint write, then a full resume: the
    corrupt file must be quarantined and the rerun must match."""
    checkpoint = Checkpoint(scratch / "sweep.ckpt.json",
                            fingerprint=f"chaos-{seed}")
    run_parallel_sweep(_chaos_items(count, seed)[:count // 2], jobs=1,
                       checkpoint=checkpoint)
    corrupt_checkpoint(checkpoint.path, mode="torn")
    outcome = run_parallel_sweep(_chaos_items(count, seed), jobs=jobs,
                                 checkpoint=checkpoint, policy=policy)
    sidecar = checkpoint.path.with_name(checkpoint.path.name + ".corrupt")
    notes = [f"corrupt checkpoint quarantined to {sidecar.name}"
             if sidecar.exists() else
             "NO .corrupt sidecar — quarantine did not happen"]
    report = _report(scenario, count, outcome, reference, notes=notes)
    if not sidecar.exists():
        report = dataclasses.replace(
            report, mismatched=report.mismatched + ("<sidecar-missing>",))
    return report


def _run_disk_full(scenario: str, count: int, seed: int, jobs: int,
                   scratch: pathlib.Path,
                   reference: Dict[str, float],
                   policy: SupervisionPolicy) -> ChaosReport:
    """A sweep whose JSONL event sink hits ENOSPC mid-run: telemetry
    degrades to in-memory, the sweep itself must not notice."""
    log = obs.EventLog(jsonl_path=scratch / "events.jsonl")
    fill_event_sink(log)
    try:
        with obs.instrumented(events=log):
            outcome = run_parallel_sweep(_chaos_items(count, seed),
                                         jobs=jobs, policy=policy)
    finally:
        log.close()
    notes = [f"sink degraded after {log.sink_errors} ENOSPC write(s), "
             f"{len(log)} event(s) retained in memory"]
    report = _report(scenario, count, outcome, reference, notes=notes)
    if log.sink_errors < 1:
        report = dataclasses.replace(
            report, mismatched=report.mismatched + ("<sink-not-degraded>",))
    return report


def run_chaos_matrix(count: int = 12, seed: int = 2009, jobs: int = 2,
                     workdir: "str | pathlib.Path | None" = None
                     ) -> List[ChaosReport]:
    """Every scenario in sequence — the CI chaos-matrix gate."""
    return [run_chaos_scenario(scenario, count=count, seed=seed,
                               jobs=jobs, workdir=workdir)
            for scenario in CHAOS_SCENARIOS]
