"""Append-only checkpoint journals and run budgets for long sweeps.

Production-scale sweeps (Monte-Carlo populations, design grids) die two
ways: the process is killed mid-run, or a pathological point burns the
whole time budget.  This module gives every long-running engine the
same three defences:

* :class:`Checkpoint` — a journal of periodic saves keyed by a config
  fingerprint, so ``--resume`` continues exactly where a killed run
  stopped (and refuses to resume a checkpoint written by a run with a
  different configuration);
* :class:`RunBudget` / :class:`BudgetClock` — wall-clock and
  failure-count ceilings checked between work items;
* :class:`SweepOutcome` — explicit ``completed/attempted`` accounting
  of a (possibly partial) sweep, returned instead of an exception by
  the one sweep loop, :func:`repro.exec.run_parallel_sweep`.

A checkpoint file (schema 3) is a header line
``{"schema": 3, "fingerprint": ...}`` followed by one
``<digest> <json>`` line per save.  Each record holds only what changed
since the previous save: ``set`` (keys added or replaced), ``grow``
(``key: [start, items]``, the new tail of a :class:`GrowingList`) and
``drop`` (keys removed); ``<digest>`` is the first 32 hex digits of the
SHA-256 of the record's JSON bytes.  A save appends its record with one
``write`` and one ``fsync``.  Only creating a file writes a temp file
and renames it over the path, so a kill can tear nothing but the last
record, which :meth:`Checkpoint.load` cuts off.  Schema-1 and schema-2
files (one JSON snapshot of ``done``) are still read; the first save
after loading one starts a journal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.effects import pure
from repro.errors import ConfigurationError

_log = logging.getLogger(__name__)

#: Bumped whenever the checkpoint layout changes incompatibly.
#: Schema 3 is the append-only journal; schema 2 (a snapshot with a
#: ``checksum`` content hash) and schema 1 (a snapshot without one)
#: are still readable.
CHECKPOINT_SCHEMA = 3

#: Oldest schema :meth:`Checkpoint.load` still accepts.
_OLDEST_READABLE_SCHEMA = 1

#: What the journal last recorded per key: the value saved and, for a
#: :class:`GrowingList`, its length then (``None`` for other values).
_Seen = Dict[Any, Tuple[Any, Optional[int]]]


class GrowingList(list):
    """A checkpointed list that only grows at the end.

    :meth:`Checkpoint.save` journals only the elements appended to a
    ``GrowingList`` value of ``done`` since the previous save, so a
    sweep that saves every few items encodes each element once.
    Elements may only be added at the end (``append``/``extend``).
    """

    __slots__ = ()


class _BadRecord(ValueError):
    """A journal record that fails its digest or does not replay."""


@pure
def _content_checksum(done: Dict[str, Any]) -> str:
    """The schema-2 checksum, over ``json.dumps(done, sort_keys=True)``."""
    return _digest(json.dumps(done, sort_keys=True).encode("utf-8"))


@pure
def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _record(seen: _Seen, done: Dict[str, Any]
            ) -> Tuple[bytes, _Seen, List[Any]]:
    """The journal line that turns the recorded state ``seen`` into
    ``done`` (empty when nothing changed), the entries it updates in
    ``seen`` and the keys it drops.

    A value other than a :class:`GrowingList` counts as unchanged when
    it is the object last saved or an equal one of the same type, so a
    caller changes such a value by replacing it, never in place.
    """
    put: Dict[Any, Any] = {}
    grow: Dict[Any, List[Any]] = {}
    updates: _Seen = {}
    kept = 0
    for key, value in done.items():
        old = seen.get(key)
        if old is not None:
            kept += 1
        if isinstance(value, GrowingList):
            same = (old is not None and old[0] is value
                    and old[1] <= len(value))
            start = old[1] if same else 0
            if same and start == len(value):
                continue
            grow[key] = [start, value[start:]]
            updates[key] = (value, len(value))
        elif old is None or not (old[0] is value or (
                type(old[0]) is type(value) and old[0] == value)):
            put[key] = value
            updates[key] = (value, None)
    dropped = ([key for key in seen if key not in done]
               if kept < len(seen) else [])
    ops: Dict[str, Any] = {}
    if dropped:  # an object, so json renders its keys like set's
        ops["drop"] = dict.fromkeys(dropped)
    if put:
        ops["set"] = put
    if grow:
        ops["grow"] = grow
    if not ops:
        return b"", updates, dropped
    body = json.dumps(ops, sort_keys=True).encode("utf-8")
    line = b"%s %s\n" % (_digest(body).encode("ascii"), body)
    return line, updates, dropped


def _replay(done: Dict[str, Any], line: bytes) -> None:
    """Apply one journal record to ``done``; :class:`_BadRecord` (and
    ``done`` untouched) when the record is damaged."""
    digest, _, body = line.partition(b" ")
    if digest != _digest(body).encode("ascii"):
        raise _BadRecord("digest mismatch")
    try:
        ops = json.loads(body)
    except ValueError as exc:
        raise _BadRecord(f"undecodable record ({exc})") from exc
    if not (isinstance(ops, dict) and ops.keys() <= {"drop", "set", "grow"}
            and all(isinstance(value, dict) for value in ops.values())):
        raise _BadRecord("not a journal record")
    dropped, put, tails = (ops.get(op, {}) for op in ("drop", "set", "grow"))
    for key, entry in tails.items():
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and isinstance(entry[1], list)):
            raise _BadRecord(f"malformed growth of {key!r}")
        current = (None if key in dropped or key in put
                   else done.get(key))
        if entry[0] != 0 and not (isinstance(current, GrowingList)
                                  and len(current) == entry[0]):
            raise _BadRecord(f"{key!r} grows from {entry[0]}, "
                             "not from its recorded length")
    for key in dropped:
        done.pop(key, None)
    done.update(put)
    for key, (start, items) in tails.items():
        if start == 0:
            done[key] = GrowingList(items)
        else:
            done[key].extend(items)


@dataclasses.dataclass(frozen=True)
class RunBudget:
    """Ceilings a sweep must respect (``None`` = unlimited).

    Deliberately *not* validated at construction: ``repro check`` rule
    M212 flags inconsistent budgets (non-positive ceilings) instead, so
    a config file can be linted without crashing the loader.
    """

    max_seconds: Optional[float] = None
    max_failures: Optional[int] = None

    @property
    @pure
    def unlimited(self) -> bool:
        return self.max_seconds is None and self.max_failures is None


class BudgetClock:
    """Tracks one run against its :class:`RunBudget`."""

    def __init__(self, budget: Optional[RunBudget] = None) -> None:
        self.budget = budget or RunBudget()
        self._started = time.monotonic()
        self.failures = 0

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def fail(self) -> None:
        self.failures += 1

    def out_of_time(self) -> bool:
        """True once ``max_seconds`` has elapsed (checked before work
        starts: work already evaluated is still merged)."""
        return (self.budget.max_seconds is not None
                and self.elapsed() >= self.budget.max_seconds)

    def out_of_failures(self) -> bool:
        """True once ``max_failures`` items have failed (checked per
        merged item, so the stop is exact)."""
        return (self.budget.max_failures is not None
                and self.failures >= self.budget.max_failures)


class Checkpoint:
    """One checkpoint journal file, keyed by a config fingerprint.

    The fingerprint (use :func:`repro.obs.config_fingerprint` over the
    sweep's effective configuration) guards against resuming a
    checkpoint that belongs to a different run: a mismatch raises
    :class:`~repro.errors.ConfigurationError` naming both fingerprints.
    """

    def __init__(self, path: "str | pathlib.Path",
                 fingerprint: str) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = fingerprint
        #: What the file on disk holds, as of this object's last load
        #: or save; ``None`` until then (the next save creates the file).
        self._seen: Optional[_Seen] = None

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved ``done`` mapping, or ``None`` if no usable file exists.

        A journal replays its records in order.  A torn last record — a
        kill during its append — is cut off: its bytes move to a
        ``.corrupt`` sidecar, a one-line warning is logged, and the
        sweep resumes from the last good record.  A file that cannot be
        trusted otherwise — a garbage header, undecodable bytes, a bad
        record before the last, or (schema 1/2) torn JSON or a content
        checksum that does not match ``done`` — is **quarantined**, not
        fatal: the file is renamed to the sidecar and the sweep resumes
        from scratch.  Genuine configuration conflicts — an unreadable
        path, a schema from a newer library, a fingerprint from a
        different run — still raise
        :class:`~repro.errors.ConfigurationError`: those are operator
        errors, not media faults.
        """
        self._seen = None
        if not self.path.exists():
            return None
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise ConfigurationError(
                f"checkpoint {self.path} is unreadable: {exc}") from exc
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return self._quarantine(f"undecodable bytes ({exc})")
        head, newline, _ = data.partition(b"\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            return self._quarantine(f"garbage header or torn JSON ({exc})")
        if not isinstance(header, dict):
            return self._quarantine(
                f"header is {type(header).__name__}, not an object")
        schema = header.get("schema")
        if not (isinstance(schema, int)
                and _OLDEST_READABLE_SCHEMA <= schema <= CHECKPOINT_SCHEMA):
            raise ConfigurationError(
                f"checkpoint {self.path} has schema {schema!r}, "
                f"expected {_OLDEST_READABLE_SCHEMA}..{CHECKPOINT_SCHEMA}")
        saved = header.get("fingerprint")
        if saved != self.fingerprint:
            raise ConfigurationError(
                f"checkpoint {self.path} was written by a run with "
                f"fingerprint {saved!r}, not {self.fingerprint!r}; "
                "delete it or rerun with the original configuration")
        if schema < CHECKPOINT_SCHEMA:
            done = self._snapshot(header)
        elif not newline:
            return self._quarantine("header line is not terminated")
        else:
            done = self._journal(data, len(head) + 1)
        if done is None:
            return None
        obs.metrics().counter("checkpoint.resumes").inc()
        obs.event("checkpoint.resumed", path=str(self.path), items=len(done))
        _log.info("resumed checkpoint %s: %d item(s) already done",
                  self.path, len(done))
        return done

    def _snapshot(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """``done`` of a schema-1/2 snapshot; the next save starts a
        journal."""
        done = payload.get("done", {})
        if not isinstance(done, dict):
            return self._quarantine(
                f"'done' is {type(done).__name__}, not an object")
        if payload["schema"] >= 2:
            expected = payload.get("checksum")
            actual = _content_checksum(done)
            if expected != actual:
                return self._quarantine(
                    f"checksum mismatch (stored {expected!r}, "
                    f"content {actual!r})")
        return done

    def _journal(self, data: bytes, start: int) -> Optional[Dict[str, Any]]:
        """Replay the records from byte ``start`` on, cutting off a torn
        last record; the next save appends."""
        lines = data[start:].split(b"\n")
        torn = lines.pop()  # empty unless the last append was cut short
        reason = f"record {len(lines) + 1} has no line end"
        done: Dict[str, Any] = {}
        end = start  # the byte after the last good record
        for number, line in enumerate(lines, 1):
            try:
                _replay(done, line)
            except _BadRecord as exc:
                if torn or number < len(lines):
                    return self._quarantine(f"record {number}: {exc}")
                torn, reason = line, f"record {number}: {exc}"
                break
            end += len(line) + 1
        done = dict(sorted(done.items()))  # the snapshot's key order
        seen = {key: (value, len(value) if isinstance(value, GrowingList)
                      else None) for key, value in done.items()}
        if not torn or self._cut(data, end, reason):
            self._seen = seen  # else the next save rewrites the file
        return done

    def _cut(self, data: bytes, end: int, reason: str) -> bool:
        """Move the bytes after ``end`` to the sidecar and truncate the
        journal there; False if the file could not be mended."""
        sidecar = self.path.with_name(self.path.name + ".corrupt")
        try:
            sidecar.write_bytes(data[end:])
            with open(self.path, "r+b") as handle:
                handle.truncate(end)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            _log.warning("checkpoint %s has a torn last record (%s) that "
                         "could not be cut off (%s); the next save "
                         "rewrites the file", self.path, reason, exc)
            return False
        _log.warning("checkpoint %s has a torn last record (%s); moved %d "
                     "byte(s) to %s, resuming from the last good record",
                     self.path, reason, len(data) - end, sidecar)
        obs.metrics().counter("checkpoint.corruptions").inc()
        obs.event("checkpoint.corrupt", path=str(self.path),
                  sidecar=str(sidecar), reason=reason)
        return True

    def _quarantine(self, reason: str) -> Optional[Dict[str, Any]]:
        """Move a corrupt checkpoint aside and resume from scratch."""
        sidecar = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, sidecar)
        except OSError:
            sidecar = self.path  # could not move it; leave it in place
        _log.warning("checkpoint %s is corrupt (%s); quarantined to %s, "
                     "resuming from scratch", self.path, reason, sidecar)
        obs.metrics().counter("checkpoint.corruptions").inc()
        obs.event("checkpoint.corrupt", path=str(self.path),
                  sidecar=str(sidecar), reason=reason)
        return None

    def save(self, done: Dict[str, Any]) -> None:
        """Record ``done`` durably: it is on disk when this returns.

        Once this object has loaded or written a journal, a save appends
        one record with what changed since then (nothing at all when
        nothing did) and fsyncs it.  Otherwise it creates the file:
        header and a full record go to a temp file that is fsynced and
        renamed over the path, and the directory is fsynced best-effort
        so the rename itself is durable.  :class:`GrowingList` values
        are journaled by their new tail; any other value must be
        replaced, not mutated in place, for a save to see the change.
        """
        seen, self._seen = self._seen, None  # unknown until a write lands
        if seen is not None:
            try:
                self._append(seen, done)
            except FileNotFoundError:
                seen = None  # the file went away: start a new one
        if seen is None:
            seen = self._create(done)
        self._seen = seen
        obs.metrics().counter("checkpoint.saves").inc()
        obs.event("checkpoint.saved", path=str(self.path), items=len(done))

    def _append(self, seen: _Seen, done: Dict[str, Any]) -> None:
        line, updates, dropped = _record(seen, done)
        if line:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                view = memoryview(line)
                while view:  # one write, unless the kernel takes less
                    view = view[os.write(fd, view):]
                os.fsync(fd)
            finally:
                os.close(fd)
        seen.update(updates)
        for key in dropped:
            del seen[key]

    def _create(self, done: Dict[str, Any]) -> _Seen:
        line, seen, _ = _record({}, done)
        header = json.dumps({"schema": CHECKPOINT_SCHEMA,
                             "fingerprint": self.fingerprint})
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("utf-8") + b"\n" + line)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
            try:
                dir_fd = os.open(self.path.parent, os.O_RDONLY)
            except OSError:
                pass  # platform without directory fds: rename still atomic
            else:
                try:
                    os.fsync(dir_fd)
                except OSError:
                    pass  # best-effort: some filesystems refuse dir fsync
                finally:
                    os.close(dir_fd)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return seen

    def clear(self) -> None:
        """Delete the checkpoint file (a completed run needs no resume)."""
        self._seen = None
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """Accounting of one (possibly partial) sweep.

    ``results`` maps item key -> decoded result for every *completed*
    item, in sweep order.  ``attempted`` counts items actually tried
    this process plus those restored from a checkpoint; items skipped
    because the budget ran out are neither attempted nor failed.
    ``failures`` are keys whose evaluation raised a
    :class:`~repro.errors.ReproError` (or, under the default policy,
    crashed its worker); ``quarantined`` are keys a supervised sweep
    retired with a process-level fault (crash, hang, deadline) among
    their strikes — every item the sweep touched lands in exactly one
    of the three.  ``interrupted``
    marks an outcome cut short by SIGTERM/Ctrl-C: partial but honest,
    with the final checkpoint already written.
    """

    results: Dict[str, Any]
    completed: int
    attempted: int
    failures: Tuple[str, ...]  # item keys whose evaluation raised
    exhausted: Optional[str]  # "max_seconds" | "max_failures" | None
    quarantined: Tuple[str, ...] = ()  # keys retired by the supervisor
    interrupted: bool = False  # cut short by SIGTERM / KeyboardInterrupt
    #: Structured :class:`repro.exec.supervise.TimeoutFailure` records,
    #: one per deadline/hang strike (including strikes on samples that
    #: later succeeded on retry).  Typed loosely to keep this module
    #: free of an executor dependency.
    timeouts: Tuple[Any, ...] = ()
    #: Final error message of every key in ``failures`` or
    #: ``quarantined`` (items failed before a resume are not listed).
    errors: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    @pure
    def complete(self) -> bool:
        """Every item finished and none failed."""
        return (self.exhausted is None and not self.failures
                and not self.quarantined and not self.interrupted)

    @pure
    def describe(self) -> str:
        parts = [f"{self.completed}/{self.attempted} completed"]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.exhausted:
            parts.append(f"stopped on {self.exhausted}")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)
