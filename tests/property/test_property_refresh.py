"""Property-based tests of the refresh interference simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.refresh import (
    LocalizedRefresh,
    MonoblockRefresh,
    RefreshSimulator,
    uniform_random_trace,
)


class TestRefreshInvariants:
    @given(seed=st.integers(0, 1000),
           activity=st.floats(0.05, 0.6),
           retention_cycles=st.sampled_from([25_000, 100_000, 400_000]))
    @settings(max_examples=15, deadline=None)
    def test_localized_never_worse_than_monoblock(self, seed, activity,
                                                  retention_cycles):
        rng = np.random.default_rng(seed)
        trace = uniform_random_trace(30_000, 128, activity, rng)
        local = RefreshSimulator(LocalizedRefresh(
            n_blocks=128, rows_per_block=32,
            refresh_period_cycles=retention_cycles)).run(trace)
        mono = RefreshSimulator(MonoblockRefresh(
            n_blocks=128, rows_per_block=32,
            refresh_period_cycles=retention_cycles)).run(trace)
        assert local.busy_fraction <= mono.busy_fraction
        assert local.completed == mono.completed == local.accesses

    @given(seed=st.integers(0, 1000), activity=st.floats(0.0, 0.6))
    @settings(max_examples=15, deadline=None)
    def test_busy_fraction_bounded(self, seed, activity):
        rng = np.random.default_rng(seed)
        trace = uniform_random_trace(20_000, 64, activity, rng)
        stats = RefreshSimulator(LocalizedRefresh(
            n_blocks=64, rows_per_block=32,
            refresh_period_cycles=200_000)).run(trace)
        assert 0.0 <= stats.busy_fraction <= 1.0
