"""Tests for the Monte-Carlo engine and worst-case estimators."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.variability import (
    MonteCarloResult,
    empirical_quantile,
    run_monte_carlo,
    worst_case_gaussian,
    worst_case_lognormal,
)


def _standard_normal(rng):
    return float(rng.normal(0.0, 1.0))


class TestEngine:
    def test_reproducible_with_seed(self):
        a = run_monte_carlo(_standard_normal, count=50, seed=7)
        b = run_monte_carlo(_standard_normal, count=50, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = run_monte_carlo(_standard_normal, count=50, seed=7)
        b = run_monte_carlo(_standard_normal, count=50, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_streams_independent(self):
        """Each evaluation gets its own stream: samples are not equal."""
        result = run_monte_carlo(_standard_normal, count=100, seed=0)
        assert len(np.unique(result.samples)) == 100

    def test_rejects_tiny_count(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(lambda rng: 0.0, count=1)

    def test_statistics(self):
        result = MonteCarloResult(samples=np.array([1.0, 2.0, 3.0]))
        assert result.mean == pytest.approx(2.0)
        assert result.median == pytest.approx(2.0)
        assert result.std == pytest.approx(1.0)


class TestWorstCase:
    def test_gaussian_low_tail(self):
        result = MonteCarloResult(samples=np.array([9.0, 10.0, 11.0]))
        assert worst_case_gaussian(result, 3.0, "low") == pytest.approx(7.0)

    def test_gaussian_high_tail(self):
        result = MonteCarloResult(samples=np.array([9.0, 10.0, 11.0]))
        assert worst_case_gaussian(result, 3.0, "high") == pytest.approx(13.0)

    def test_lognormal_matches_known_distribution(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=math.log(1e-3), sigma=0.5, size=50000)
        result = MonteCarloResult(samples=samples)
        worst = worst_case_lognormal(result, 6.0, "low")
        expected = math.exp(math.log(1e-3) - 6 * 0.5)
        assert worst == pytest.approx(expected, rel=0.1)

    def test_lognormal_always_positive(self):
        """The reason for the lognormal fit: a Gaussian 6-sigma would go
        negative on a heavy-tailed positive quantity."""
        rng = np.random.default_rng(1)
        samples = rng.lognormal(mean=0.0, sigma=1.0, size=5000)
        result = MonteCarloResult(samples=samples)
        assert worst_case_lognormal(result, 6.0, "low") > 0
        assert worst_case_gaussian(result, 6.0, "low") < 0

    def test_lognormal_requires_positive_samples(self):
        result = MonteCarloResult(samples=np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            worst_case_lognormal(result, 6.0)

    def test_bad_tail_rejected(self):
        result = MonteCarloResult(samples=np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            worst_case_gaussian(result, 3.0, tail="middle")


class TestQuantile:
    def test_median(self):
        result = MonteCarloResult(samples=np.arange(101, dtype=float))
        assert empirical_quantile(result, 0.5) == pytest.approx(50.0)

    def test_bounds_checked(self):
        result = MonteCarloResult(samples=np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            empirical_quantile(result, 1.5)
