"""Golden pin of the Fig. 5 simulation: exact stall and refresh counts.

The trace and the period expression are the ones the paper-figures
workload and ``benchmarks/test_fig5_refresh_busy.py`` use; the numbers
were recorded with the per-cycle simulator the access-driven walk
replaced.
"""

import numpy as np
import pytest

from repro.refresh import (LocalizedRefresh, MonoblockRefresh,
                           RefreshSimulator, uniform_random_trace)

#: retention (us) -> (monoblock stall, issued, total cycles),
#:                   (localized stall, issued, total cycles)
GOLDEN = {
    20: ((135742, 67871, 165701), (519, 24575, 60000)),
    100: ((6077, 4916, 60000), (51, 4916, 60000)),
    500: ((1213, 983, 60000), (19, 983, 60000)),
    1000: ((608, 492, 60000), (3, 492, 60000)),
}


@pytest.fixture(scope="module")
def trace():
    return uniform_random_trace(60000, 128, 0.5,
                                np.random.default_rng(2009))


@pytest.mark.parametrize("retention_us", sorted(GOLDEN))
def test_fig5_counts_are_pinned(trace, retention_us):
    period = int(retention_us * 1e-6 * 500e6)
    for cls, expected in zip((MonoblockRefresh, LocalizedRefresh),
                             GOLDEN[retention_us]):
        policy = cls(n_blocks=128, rows_per_block=32,
                     refresh_period_cycles=period)
        stats = RefreshSimulator(policy).run(trace)
        assert (stats.stall_cycles, stats.refreshes_issued,
                stats.total_cycles) == expected, cls.__name__
        assert stats.completed == stats.accesses == 29959
