"""Structured event log: a bounded ring of timestamped facts.

Metrics answer "how much"; spans answer "how long"; events answer
"*what happened, when*".  An :class:`Event` is one discrete occurrence
— a recovery-ladder escalation, a dropped refresh, a worker crash, a
checkpoint write — with a dotted lowercase ``kind`` and a small JSON-
serialisable payload.  Call sites emit through
:func:`repro.obs.event` (a no-op while instrumentation is disabled)::

    obs.event("spice.recovery.recovered", circuit="senseamp",
              rung="gmin", attempts=4)

The :class:`EventLog` is **bounded**: it keeps the newest ``capacity``
events in an in-memory ring and counts (never stores) everything it
had to drop, so a million-step run cannot exhaust memory through its
own instrumentation.  An optional JSONL sink streams *every* event to
disk as it is emitted — the ring bounds memory, the sink preserves the
full history for offline tooling (``repro obs export``).

Event kinds follow the same dotted ``lower_snake.case`` discipline as
metric names, and one kind keeps one payload-key signature across the
codebase — both enforced statically by lint rule ``L108``.
"""

from __future__ import annotations

import collections
import json
import logging
import pathlib
import time
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigurationError

_log = logging.getLogger(__name__)

#: Default ring capacity — newest events kept in memory per run.
DEFAULT_EVENT_CAPACITY = 4096


class Event:
    """One timestamped occurrence.

    ``t`` is :func:`time.perf_counter` at emission — the same clock
    spans use for ``start``, so events and spans land on one timeline
    in the exported Chrome trace.
    """

    __slots__ = ("t", "kind", "payload")

    def __init__(self, t: float, kind: str,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.t = t
        self.kind = kind
        self.payload: Dict[str, Any] = payload or {}

    def to_dict(self) -> Dict[str, Any]:
        node: Dict[str, Any] = {"t": self.t, "kind": self.kind}
        if self.payload:
            node["payload"] = dict(self.payload)
        return node

    @classmethod
    def from_dict(cls, node: Dict[str, Any]) -> "Event":
        return cls(t=float(node["t"]), kind=str(node["kind"]),
                   payload=dict(node.get("payload", {})))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.t:.6f}, kind={self.kind!r}, {self.payload})"


class EventLog:
    """Bounded in-memory event ring with an optional JSONL sink.

    The ring keeps the newest ``capacity`` events; older ones are
    dropped (counted in :attr:`dropped`).  With ``jsonl_path`` every
    event is additionally appended to that file as one JSON object per
    line; the parent directory is created if missing, and an unwritable
    path fails at construction with a one-line
    :class:`~repro.errors.ConfigurationError` instead of a traceback
    from deep inside a run.

    A sink that fails **mid-run** (disk full, filesystem yanked) must
    not kill the sweep that is being observed: the sink is closed, the
    failure is counted in :attr:`sink_errors` and logged once, and the
    log degrades to in-memory-only for the rest of the run.
    """

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY,
                 jsonl_path: "str | pathlib.Path | None" = None) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"event log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[Event] = collections.deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0
        self._sink = None
        self.sink_errors = 0
        self.sink_path: Optional[pathlib.Path] = None
        if jsonl_path is not None:
            self.sink_path = pathlib.Path(jsonl_path)
            try:
                self.sink_path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = open(self.sink_path, "w")
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot open event sink {self.sink_path}: "
                    f"{exc}") from exc

    # -- emission --------------------------------------------------------------

    def emit(self, kind: str, **payload: Any) -> Event:
        """Record one event; returns it (timestamped now)."""
        event = Event(time.perf_counter(), kind, payload)
        self._append(event)
        return event

    def _append(self, event: Event) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.emitted += 1
        if self._sink is not None:
            try:
                self._sink.write(
                    json.dumps(event.to_dict(), default=repr) + "\n")
            except (OSError, ValueError) as exc:
                # Disk full / sink torn away mid-run: telemetry must
                # never kill the run it observes.  Degrade to the
                # in-memory ring and say so once.
                self.sink_errors += 1
                sink, self._sink = self._sink, None
                try:
                    sink.close()
                except (OSError, ValueError):
                    pass
                _log.warning(
                    "event sink %s failed (%s); continuing in-memory only",
                    self.sink_path, exc)

    def extend(self, events: Iterable[Union[Event, Dict[str, Any]]]) -> int:
        """Fold already-timestamped events in, preserving their order.

        The parallel executor ships each worker's events back as dicts
        and the parent folds them here in submission order — the
        deterministic merge the progress/diff tooling relies on.
        Returns how many events were appended.
        """
        count = 0
        for item in events:
            event = item if isinstance(item, Event) else Event.from_dict(item)
            self._append(event)
            count += 1
        return count

    # -- introspection ---------------------------------------------------------

    def events(self) -> List[Event]:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialisable view of the retained ring (for run reports)."""
        return [event.to_dict() for event in self._ring]

    def kinds(self) -> Dict[str, int]:
        """Retained event count per kind (a cheap run summary)."""
        counts: Dict[str, int] = {}
        for event in self._ring:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            try:
                self._sink.close()
            finally:
                self._sink = None

    def reset(self) -> None:
        """Drop the retained ring and counters (the sink stays open)."""
        self._ring.clear()
        self.emitted = 0
        self.dropped = 0


class NullEventLog:
    """Event-log twin that discards everything (the disabled path)."""

    capacity = 0
    emitted = 0
    dropped = 0
    sink_errors = 0
    sink_path = None

    def emit(self, kind: str, **payload: Any) -> None:
        pass

    def extend(self, events: Iterable[Any]) -> int:
        return 0

    def events(self) -> List[Event]:
        return []

    def __len__(self) -> int:
        return 0

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def kinds(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass

    def reset(self) -> None:
        pass


NULL_EVENT_LOG = NullEventLog()
