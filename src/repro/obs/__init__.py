"""repro.obs — instrumentation: metrics, spans, events, time series.

The layer every performance claim in this repo reports through.  Five
pieces:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — nested wall-time spans
  (``with span("newton.solve"):``) folded into a per-run tree;
* :mod:`repro.obs.events` — a bounded, timestamped structured-event
  log (in-memory ring + optional JSONL sink);
* :mod:`repro.obs.timeseries` — windowed samplers with bounded-memory
  decimation for time-resolved statistics on million-step runs;
* :mod:`repro.obs.report` — serialises one run (span tree + metrics +
  events + series + config fingerprint) to JSON.

Offline tooling lives beside them: :mod:`repro.obs.export` renders a
run report as a Chrome-trace (Perfetto-viewable), CSV, or
Prometheus-textfile document; :mod:`repro.obs.diff` computes
threshold-gated metric deltas between two reports; and
:mod:`repro.obs.progress` drives the live sweep progress line.

Instrumentation is **disabled by default**.  Library code calls
:func:`span`, :func:`metrics`, :func:`event` and :func:`timeseries`
unconditionally; while disabled those return shared no-op objects, so
the cost at every call site is a flag test plus an empty call —
bounded below 2 % of the Fig. 5 simulation loop by
``benchmarks/test_obs_overhead.py``.  The CLI's ``--profile`` /
``--metrics-out`` / ``--events-out`` flags (and tests, via
:func:`instrumented`) switch the real implementations in.

Typical library-side usage::

    from repro import obs

    with obs.span("simulate", cycles=n):
        ...
        obs.metrics().counter("refresh.stall_cycles").inc(stalls)
        obs.event("refresh.dropped", index=i, cycle=cycle)
        obs.timeseries().series("refresh.busy_fraction").sample(cycle, f)

Typical harness-side usage::

    obs.enable()
    run_the_thing()
    report = obs.run_report("fig5", config={...})
    obs.disable()
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs.events import (DEFAULT_EVENT_CAPACITY, Event, EventLog,
                              NULL_EVENT_LOG, NullEventLog)
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, NULL_REGISTRY, NullRegistry)
from repro.obs.report import (REPORT_SCHEMA, build_run_report,
                              config_fingerprint, write_run_report)
from repro.obs.timeseries import (NULL_TIMESERIES, NullTimeSeriesRecorder,
                                  TimeSeries, TimeSeriesRecorder)
from repro.obs.tracing import (NOOP_SPAN, Span, Tracer, _NoopSpan,
                               format_span_tree)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "DEFAULT_BUCKETS",
    "Span", "Tracer", "NOOP_SPAN", "format_span_tree",
    "Event", "EventLog", "NullEventLog", "NULL_EVENT_LOG",
    "DEFAULT_EVENT_CAPACITY",
    "TimeSeries", "TimeSeriesRecorder", "NullTimeSeriesRecorder",
    "NULL_TIMESERIES",
    "REPORT_SCHEMA", "build_run_report", "config_fingerprint",
    "write_run_report",
    "enable", "disable", "is_enabled", "reset", "instrumented",
    "metrics", "tracer", "span", "event", "events", "timeseries",
    "run_report",
]

# Process-global default instances.  ``enable()`` may swap in injected
# ones; the defaults persist so repeated enable/disable cycles keep
# accumulating into the same registry until ``reset()``.
_enabled: bool = False
_registry: MetricsRegistry = MetricsRegistry()
_tracer: Tracer = Tracer()
_events: EventLog = EventLog()
_timeseries: TimeSeriesRecorder = TimeSeriesRecorder()


def is_enabled() -> bool:
    """Is instrumentation currently recording?"""
    return _enabled


def enable(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None,
           events: Optional[EventLog] = None,
           timeseries: Optional[TimeSeriesRecorder] = None) -> None:
    """Turn instrumentation on, optionally injecting instances."""
    global _enabled, _registry, _tracer, _events, _timeseries
    if registry is not None:
        _registry = registry
    if tracer is not None:
        _tracer = tracer
    if events is not None:
        _events = events
    if timeseries is not None:
        _timeseries = timeseries
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data stays until reset)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear every recorded metric, span, event and series."""
    _registry.reset()
    _tracer.reset()
    _events.reset()
    _timeseries.reset()


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry — the null registry while disabled."""
    return _registry if _enabled else NULL_REGISTRY


def tracer() -> Tracer:
    """The active tracer (even while disabled, for inspection)."""
    return _tracer


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Open a (nested) timed span; no-op while disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attrs)


def events() -> Union[EventLog, NullEventLog]:
    """The active event log — the null log while disabled."""
    return _events if _enabled else NULL_EVENT_LOG


def event(kind: str, **payload: Any) -> None:
    """Emit one structured event; no-op while disabled.

    The hot-path spelling of ``obs.events().emit(...)`` — one flag
    test, then either nothing or a ring append (plus the JSONL sink
    write when one is attached).
    """
    if _enabled:
        _events.emit(kind, **payload)


def timeseries() -> Union[TimeSeriesRecorder, NullTimeSeriesRecorder]:
    """The active time-series recorder — the null one while disabled."""
    return _timeseries if _enabled else NULL_TIMESERIES


def run_report(command: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """Build the JSON-serialisable report of the current run."""
    return build_run_report(command, config, _registry, _tracer,
                            events=_events, timeseries=_timeseries)


@contextlib.contextmanager
def instrumented(registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 events: Optional[EventLog] = None,
                 timeseries: Optional[TimeSeriesRecorder] = None
                 ) -> Iterator[MetricsRegistry]:
    """Temporarily enable instrumentation (tests' main entry point).

    Yields the active registry; on exit the previous global state —
    enabled flag, registry, tracer, event log, series recorder — is
    restored exactly.
    """
    global _enabled, _registry, _tracer, _events, _timeseries
    saved = (_enabled, _registry, _tracer, _events, _timeseries)
    try:
        # Explicit None checks: an empty EventLog is falsy (it has a
        # __len__), so ``events or EventLog()`` would silently discard
        # an injected-but-still-empty log (and its JSONL sink).
        enable(registry=registry if registry is not None
               else MetricsRegistry(),
               tracer=tracer if tracer is not None else Tracer(),
               events=events if events is not None else EventLog(),
               timeseries=timeseries if timeseries is not None
               else TimeSeriesRecorder())
        yield _registry
    finally:
        (_enabled, _registry, _tracer, _events, _timeseries) = saved
