"""Low-overhead windowed time series with bounded-memory decimation.

A :class:`TimeSeries` records ``(t, value)`` samples from a hot loop —
Newton iterations per accepted timestep, the refresh simulator's
windowed busy fraction, the batch solver's occupancy — while
guaranteeing that memory stays bounded no matter how long the run is:

* the series stores at most ``capacity`` points;
* when full it **decimates** — keeps every other stored point and
  doubles its acceptance stride, so future samples are recorded at half
  the previous rate.

A million-step run therefore ends with ~``capacity`` points spread
evenly over the whole run (log2 decimation passes), and summary
statistics (``count``/``min``/``max``/``sum``/``last``) are exact over
*every* sample, stored or not.

Like metrics, series live in a registry (:class:`TimeSeriesRecorder`)
fetched through :func:`repro.obs.timeseries`, which hands out no-op
twins while instrumentation is disabled — the hot-path cost of a
disabled sampler is one flag test plus a null method call, covered by
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Default per-series point budget (decimation triggers above it).
DEFAULT_CAPACITY = 256


class TimeSeries:
    """One named, bounded series of ``(t, value)`` samples."""

    __slots__ = ("name", "capacity", "points", "stride", "_skip",
                 "count", "_sum", "_min", "_max", "last")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 2:
            raise ConfigurationError(
                f"time series {name!r} capacity must be >= 2, "
                f"got {capacity}")
        self.name = name
        self.capacity = capacity
        self.points: List[Tuple[float, float]] = []
        self.stride = 1  # accept every stride-th sample
        self._skip = 0
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.last: Optional[float] = None

    def sample(self, t: float, value: float) -> None:
        """Record one observation at time ``t`` (any monotonic axis)."""
        value = float(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self.last = value
        self._skip += 1
        if self._skip < self.stride:
            return
        self._skip = 0
        self.points.append((float(t), value))
        if len(self.points) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        """Halve the stored resolution; double the acceptance stride."""
        self.points = self.points[::2]
        self.stride *= 2

    # -- statistics ------------------------------------------------------------

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    # -- serialisation ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "stride": self.stride,
            "count": self.count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "last": self.last,
            "points": [[t, v] for t, v in self.points],
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another series' snapshot into this one.

        Stored points are appended in the order given (the executor
        merges workers in submission order, keeping the result
        deterministic), then re-decimated down to ``capacity``; the
        summary statistics merge exactly.  ``last`` takes the
        snapshot's value — last-write-wins, like gauges.
        """
        count = int(snapshot.get("count", 0))
        if count == 0:
            return
        self.count += count
        self._sum += float(snapshot.get("sum", 0.0))
        self._min = min(self._min, float(snapshot["min"]))
        self._max = max(self._max, float(snapshot["max"]))
        if snapshot.get("last") is not None:
            self.last = float(snapshot["last"])
        self.stride = max(self.stride, int(snapshot.get("stride", 1)))
        for t, v in snapshot.get("points", []):
            self.points.append((float(t), float(v)))
        while len(self.points) >= self.capacity:
            self._decimate()


class TimeSeriesRecorder:
    """Named time series, created on first use (like metrics)."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str,
               capacity: Optional[int] = None) -> TimeSeries:
        instance = self._series.get(name)
        if instance is None:
            instance = self._series[name] = TimeSeries(
                name, capacity if capacity is not None else DEFAULT_CAPACITY)
        elif capacity is not None and capacity != instance.capacity:
            raise ConfigurationError(
                f"time series {name!r} already registered with capacity "
                f"{instance.capacity}")
        return instance

    def names(self) -> Iterable[str]:
        yield from self._series

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Serialisable view of every series (sorted by name)."""
        return {name: series.snapshot()
                for name, series in sorted(self._series.items())}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` from another recorder into this one."""
        for name, state in snapshot.items():
            self.series(name, state.get("capacity")).merge(state)

    def reset(self) -> None:
        self._series.clear()


class _NullTimeSeries:
    """Shared no-op series handed out while instrumentation is off."""

    __slots__ = ()
    name = "<null>"
    capacity = 0
    stride = 1
    points: List[Tuple[float, float]] = []
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    last = None

    def sample(self, t: float, value: float) -> None:
        pass


class NullTimeSeriesRecorder:
    """Recorder twin whose series discard everything."""

    def series(self, name: str,
               capacity: Optional[int] = None) -> _NullTimeSeries:
        return _NULL_SERIES

    def names(self) -> Iterable[str]:
        return ()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        pass

    def reset(self) -> None:
        pass


_NULL_SERIES = _NullTimeSeries()
NULL_TIMESERIES = NullTimeSeriesRecorder()
