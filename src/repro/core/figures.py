"""Plain-text figure rendering.

The paper's figures are line charts; the examples and benchmark result
files render them as ASCII so a terminal-only environment still *sees*
the shapes (log axes included, since every interesting sweep here spans
decades).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.errors import ConfigurationError


def ascii_chart(series: Dict[str, Sequence[float]],
                x_values: Sequence[float],
                width: int = 60, height: int = 16,
                log_x: bool = False, log_y: bool = False,
                x_label: str = "x", y_label: str = "y") -> str:
    """Render one or more series as an ASCII scatter-line chart.

    Each series gets a marker character; points map onto a
    ``width x height`` grid with optional log axes.  Returns the chart
    as a multi-line string.
    """
    if not series:
        raise ConfigurationError("need at least one series")
    if width < 10 or height < 4:
        raise ConfigurationError("chart too small to draw")
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} points for "
                f"{len(x_values)} x values")
    if len(x_values) < 2:
        raise ConfigurationError("need at least two points")

    def transform(value: float, log: bool) -> float:
        if not log:
            return value
        if value <= 0:
            raise ConfigurationError("log axis needs positive values")
        return math.log10(value)

    xs = [transform(x, log_x) for x in x_values]
    all_ys = [transform(y, log_y)
              for values in series.values() for y in values]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_ys), max(all_ys)
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@%&"
    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker} = {name}")
        for x, y in zip(xs, (transform(v, log_y) for v in values)):
            col = round((x - x_lo) / x_span * (width - 1))
            row = round((y - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = [f"{y_label} ({'log' if log_y else 'lin'})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} ({'log' if log_x else 'lin'}): "
                 f"{x_values[0]:.3g} .. {x_values[-1]:.3g}")
    lines.append(" " + "   ".join(legend))
    return "\n".join(lines)

