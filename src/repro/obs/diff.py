"""Mechanical run comparison: threshold-gated metric deltas.

``repro obs diff A.json B.json`` answers "did anything move, and did
it move the wrong way?" without a human eyeballing two JSON files.  It
accepts both document shapes this repo produces:

* **run reports** (``--metrics-out``): counters/gauges flatten to
  their values, histograms to ``<name>.mean``/``<name>.count``, plus
  ``total_duration_s``;
* **benchmark reports** (``BENCH_solver.json``/``BENCH_sweep.json``):
  every top-level numeric key.

Each metric is classified by name into a *direction*: higher-better
(throughputs, speedups, rates, hits), lower-better (durations, stalls,
misses, failures) or neutral.  A relative change beyond the threshold
against a metric's good direction is a **regression**; the CLI exits
non-zero when any exists, e.g. on
``repro obs diff benchmarks/baselines/BENCH_solver.json
benchmarks/results/BENCH_solver.json``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Any, Dict, List

from repro.errors import ConfigurationError

#: Default relative-change gate, matching the perf-smoke tolerance.
DEFAULT_THRESHOLD = 0.25

_HIGHER_BETTER_RE = re.compile(
    r"per_sec|per_second|speedup|throughput|rate|ratio|hits|reuse|useful"
    r"|completed|efficiency", re.IGNORECASE)
_LOWER_BETTER_RE = re.compile(
    r"duration|seconds|elapsed|latency|_time|stall|miss|fail|drop|crash"
    r"|exhausted|error|retries|refactor", re.IGNORECASE)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two reports."""

    name: str
    before: float
    after: float
    direction: str  # "higher_better" | "lower_better" | "neutral"
    threshold: float

    @property
    def rel_change(self) -> float:
        """(after - before) / |before|; +/-inf for a vanished baseline."""
        # Exact-zero sentinels: a counter that was literally 0 has no
        # relative scale, so tolerance comparison would be wrong here.
        if self.before == 0.0:  # noqa: L102
            return 0.0 if self.after == 0.0 else float(  # noqa: L102
                "inf" if self.after > 0 else "-inf")
        return (self.after - self.before) / abs(self.before)

    @property
    def exceeds_threshold(self) -> bool:
        return abs(self.rel_change) >= self.threshold

    @property
    def regressed(self) -> bool:
        """Did the metric move the wrong way beyond the threshold?"""
        if not self.exceeds_threshold:
            return False
        if self.direction == "higher_better":
            return self.rel_change < 0
        if self.direction == "lower_better":
            return self.rel_change > 0
        return False

    def describe(self) -> str:
        flag = "  REGRESSION" if self.regressed else ""
        return (f"{self.name:<44} {self.before:>14.6g} {self.after:>14.6g} "
                f"{100 * self.rel_change:>+9.1f}%{flag}")


def metric_direction(name: str) -> str:
    """Classify a metric name as higher/lower-better or neutral.

    Lower-better wins ties (``convergence_failure_rate`` is a failure
    count first), which keeps the gate conservative: an ambiguous
    metric that doubles is flagged.
    """
    if _LOWER_BETTER_RE.search(name):
        return "lower_better"
    if _HIGHER_BETTER_RE.search(name):
        return "higher_better"
    return "neutral"


def flatten_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """Flatten either report shape into ``{metric_name: value}``."""
    if not isinstance(doc, dict):
        raise ConfigurationError("report must be a JSON object")
    flat: Dict[str, float] = {}
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):  # a run report
        for name, value in metrics.get("counters", {}).items():
            flat[name] = float(value)
        for name, value in metrics.get("gauges", {}).items():
            flat[name] = float(value)
        for name, state in metrics.get("histograms", {}).items():
            count = int(state.get("count", 0))
            flat[f"{name}.count"] = float(count)
            if count:
                flat[f"{name}.mean"] = float(state.get("sum", 0.0)) / count
        if isinstance(doc.get("total_duration_s"), (int, float)):
            flat["total_duration_s"] = float(doc["total_duration_s"])
        return flat
    for name, value in doc.items():  # a flat benchmark report
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        flat[str(name)] = float(value)
    return flat


def load_report(path: "str | pathlib.Path") -> Dict[str, Any]:
    """Load one report JSON with a one-line diagnostic on failure."""
    target = pathlib.Path(path)
    try:
        return json.loads(target.read_text())
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read report {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"report {target} is not valid JSON: {exc}") from exc


def diff_reports(before: Dict[str, Any], after: Dict[str, Any],
                 threshold: float = DEFAULT_THRESHOLD) -> List[MetricDelta]:
    """Compare two reports; returns one delta per shared numeric metric.

    Metrics present in only one report are skipped (a new counter is
    not a regression); the caller can detect them by comparing
    :func:`flatten_metrics` key sets.
    """
    if threshold <= 0:
        raise ConfigurationError(
            f"threshold must be positive, got {threshold:g}")
    flat_a = flatten_metrics(before)
    flat_b = flatten_metrics(after)
    deltas = [
        MetricDelta(name=name, before=flat_a[name], after=flat_b[name],
                    direction=metric_direction(name), threshold=threshold)
        for name in sorted(flat_a.keys() & flat_b.keys())
    ]
    return deltas


def format_diff(deltas: List[MetricDelta],
                threshold: float = DEFAULT_THRESHOLD) -> str:
    """Human-readable diff: changed metrics, then a one-line verdict."""
    changed = [d for d in deltas if d.exceeds_threshold]
    regressions = [d for d in deltas if d.regressed]
    lines: List[str] = []
    if changed:
        lines.append(f"{'metric':<44} {'before':>14} {'after':>14} "
                     f"{'change':>10}")
        lines.extend(d.describe() for d in changed)
    lines.append(
        f"{len(deltas)} metric(s) compared, {len(changed)} beyond "
        f"±{100 * threshold:g}% threshold, "
        f"{len(regressions)} regression(s)")
    return "\n".join(lines)


def diff_to_json(deltas: List[MetricDelta]) -> str:
    """Machine-readable diff (sorted, schema-stable)."""
    return json.dumps({
        "schema": 1,
        "metrics_compared": len(deltas),
        "regressions": sum(1 for d in deltas if d.regressed),
        "deltas": [
            {
                "name": d.name,
                "before": d.before,
                "after": d.after,
                "rel_change": d.rel_change,
                "direction": d.direction,
                "exceeds_threshold": d.exceeds_threshold,
                "regressed": d.regressed,
            }
            for d in deltas if d.exceeds_threshold
        ],
    }, indent=2) + "\n"
