"""Property-based tests of units, statistics and report helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import format_table
from repro.units import clamp, parallel, si_format
from repro.variability import (
    LognormalSpec,
    MonteCarloResult,
    worst_case_lognormal,
)

finite = st.floats(min_value=1e-18, max_value=1e18,
                   allow_nan=False, allow_infinity=False)


class TestUnits:
    @given(value=st.floats(min_value=-1e15, max_value=1e15,
                           allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_si_format_total(self, value):
        """Formatting never crashes and keeps the sign."""
        text = si_format(value, "X")
        assert isinstance(text, str)
        if value < 0:
            assert text.startswith("-")

    @given(values=st.lists(finite, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_parallel_below_minimum(self, values):
        assert parallel(*values) <= min(values) * (1 + 1e-12)

    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           lo=st.floats(-100, 0), hi=st.floats(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_clamp_in_range(self, x, lo, hi):
        assert lo <= clamp(x, lo, hi) <= hi


class TestLognormalTail:
    @given(median=st.floats(1e-12, 1e-3), sigma=st.floats(0.05, 1.5),
           n_sigma=st.floats(1.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_quantile_ordering(self, median, sigma, n_sigma):
        spec = LognormalSpec(median=median, sigma_ln=sigma)
        low = spec.quantile_at_sigma(-n_sigma)
        high = spec.quantile_at_sigma(n_sigma)
        assert 0 < low <= median <= high

    @given(seed=st.integers(0, 5000), sigma=st.floats(0.2, 1.2))
    @settings(max_examples=30, deadline=None)
    def test_worst_case_below_median(self, seed, sigma):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=0.0, sigma=sigma, size=500)
        result = MonteCarloResult(samples=samples)
        worst = worst_case_lognormal(result, n_sigma=6.0, tail="low")
        assert 0 < worst < result.median


class TestFormatTable:
    @given(rows=st.lists(
        st.tuples(st.text(alphabet="abcXYZ019", max_size=8),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_column_alignment(self, rows):
        text = format_table(["name", "value"], [list(r) for r in rows])
        lines = text.splitlines()
        assert len(lines) == 2 + len(rows)
        # The separator must be at least as wide as any cell line.
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)
