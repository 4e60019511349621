"""Tests for ASCII figure rendering."""

import pytest

from repro.core import ascii_chart
from repro.errors import ConfigurationError


class TestAsciiChart:
    def test_basic_render(self):
        chart = ascii_chart({"a": [1, 2, 3]}, [0, 1, 2])
        lines = chart.splitlines()
        assert any("*" in line for line in lines)
        assert "a" in lines[-1]

    def test_dimensions(self):
        chart = ascii_chart({"a": [1, 2]}, [0, 1], width=30, height=8)
        body = [l for l in chart.splitlines() if l.startswith("|")]
        assert len(body) == 8
        assert all(len(line) <= 31 for line in body)

    def test_extremes_hit_borders(self):
        chart = ascii_chart({"a": [0.0, 10.0]}, [0, 1], width=20, height=6)
        body = [l for l in chart.splitlines() if l.startswith("|")]
        assert "*" in body[0]    # max at the top row
        assert "*" in body[-1]   # min at the bottom row

    def test_two_series_two_markers(self):
        chart = ascii_chart({"a": [1, 2], "b": [2, 1]}, [0, 1])
        assert "*" in chart and "o" in chart

    def test_log_axis(self):
        chart = ascii_chart({"a": [1, 10, 100]}, [1, 2, 3], log_y=True)
        body = [l for l in chart.splitlines() if l.startswith("|")]
        rows = [i for i, line in enumerate(body) if "*" in line]
        # Log spacing: equidistant rows.
        assert rows[1] - rows[0] == pytest.approx(rows[2] - rows[1], abs=1)

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [0.0, 1.0]}, [1, 2], log_y=True)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [1, 2, 3]}, [0, 1])

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [1, 2]}, [0, 1], width=5)

    def test_single_point_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": [1]}, [0])
