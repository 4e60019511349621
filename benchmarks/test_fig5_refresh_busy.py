"""E1 — Paper Fig. 5: percentage of busy cycles due to refresh.

Monoblock vs 128-localblock DRAM at 500 MHz, swept over retention time.
Shape assertions: the localized scheme is orders of magnitude cheaper
and becomes negligible at high retention.
"""

import numpy as np

from repro.core import format_table
from repro.refresh import (
    LocalizedRefresh,
    MonoblockRefresh,
    RefreshSimulator,
    uniform_random_trace,
)
from benchmarks._util import record_result

N_BLOCKS, ROWS = 128, 32
CLOCK = 500e6
CYCLES = 60_000
ACTIVITY = 0.5
RETENTIONS_US = (20, 50, 100, 500, 1000)


def run_sweep():
    rng = np.random.default_rng(2009)
    trace = uniform_random_trace(CYCLES, N_BLOCKS, ACTIVITY, rng)
    rows = []
    for retention_us in RETENTIONS_US:
        period = int(retention_us * 1e-6 * CLOCK)
        results = {}
        for cls, name in ((MonoblockRefresh, "mono"),
                          (LocalizedRefresh, "local")):
            policy = cls(n_blocks=N_BLOCKS, rows_per_block=ROWS,
                         refresh_period_cycles=period)
            results[name] = RefreshSimulator(policy).run(trace)
        rows.append((retention_us, results["mono"].busy_fraction,
                     results["local"].busy_fraction))
    return rows


def test_fig5_refresh_busy_cycles(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = format_table(
        ["retention (us)", "monoblock busy %", "128 localblocks busy %",
         "gain"],
        [[r_us, 100 * mono, 100 * local,
          f"{mono / max(local, 1e-12):.0f}x"]
         for r_us, mono, local in rows],
    )
    record_result("fig5_refresh_busy", table)

    for _retention, mono, local in rows:
        # The paper's message: localized refresh wipes out the penalty.
        assert local < 0.05 * mono
    # Negligible at high retention ("especially for high retention time").
    assert rows[-1][2] < 0.001
    # Monoblock penalty scales ~1/retention.
    assert rows[0][1] > 5 * rows[-1][1]
