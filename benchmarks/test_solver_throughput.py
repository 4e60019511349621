"""Solver assembly throughput: compiled stamp plan vs per-element stamping.

The compiled :class:`~repro.spice.stampplan.StampPlan` must deliver at
least a 3x timesteps/sec improvement on the paper's 16-cell local-block
read transient while staying bit-identical to per-element stamping.
The per-element side is the test oracle (``tests/spice/oracle.py``),
swapped in for the plan under the same Newton loop, so the ratio
compares the two assemblies alone.  Oracle ("legacy") and plan ("fast")
runs are interleaved in pairs and the *median* per-pair ratio is
asserted, which cancels the slow drift of a noisy shared machine;
per-run throughput (timesteps/sec, Newton iterations/sec) is measured
through the instrumentation counters the solver already emits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import FastDramDesign, obs
from repro.array.localblock import build_localblock_read_circuit
from repro.spice import simulate_transient
from repro.units import ns, ps
from benchmarks._util import check_regression, record_json, record_result
from tests.spice.oracle import oracle_plans

MIN_SPEEDUP = 3.0
PAIRS = 5
T_STOP = 0.5 * ns
DT = 1.0 * ps


def _localblock():
    cell = FastDramDesign().cell()
    circuit = build_localblock_read_circuit(cell, cells_per_lbl=16)
    initial = {"pre_rail": cell.bitline_precharge,
               "sa_rail": cell.bitline_precharge,
               "gbl_gnd": 0.3, "prech_ctl": 1.2}
    return circuit, initial


def _run(circuit, initial):
    """One instrumented transient; returns (result, seconds, counters)."""
    with obs.instrumented() as registry:
        start = time.perf_counter()
        result = simulate_transient(circuit, t_stop=T_STOP, dt=DT,
                                    initial_voltages=initial)
        elapsed = time.perf_counter() - start
        snapshot = registry.snapshot()
    steps = snapshot["counters"]["spice.timesteps"]
    iters = snapshot["histograms"]["spice.newton.iterations"]["sum"]
    return result, elapsed, steps, iters


def test_stamp_plan_speedup_and_bit_identity():
    circuit, initial = _localblock()

    ratios, fast_rates, legacy_rates, newton_rates = [], [], [], []
    reference = None
    for _ in range(PAIRS):
        with oracle_plans():
            legacy, t_legacy, steps, _ = _run(circuit, initial)
        fast, t_fast, _, iters = _run(circuit, initial)
        # The speedup must never buy numerical drift.
        assert np.array_equal(fast.data, legacy.data)
        if reference is None:
            reference = fast.data
        else:
            assert np.array_equal(fast.data, reference)  # runs repeat too
        ratios.append(t_legacy / t_fast)
        fast_rates.append(steps / t_fast)
        legacy_rates.append(steps / t_legacy)
        newton_rates.append(iters / t_fast)

    speedup = statistics.median(ratios)
    metrics = {
        "circuit": "localblock-read (16 cells/LBL)",
        "timesteps": int(round(T_STOP / DT)),
        "pairs": PAIRS,
        "speedup_fast_vs_legacy": round(speedup, 3),
        "speedup_per_pair": [round(r, 3) for r in ratios],
        "timesteps_per_sec_fast": round(max(fast_rates), 1),
        "timesteps_per_sec_legacy": round(max(legacy_rates), 1),
        "newton_iters_per_sec_fast": round(max(newton_rates), 1),
    }
    record_json("BENCH_solver", metrics)
    record_result("solver_throughput", "\n".join([
        "stamp plan vs per-element stamping oracle, 16-cell local block:",
        f"  timesteps/sec fast   : {metrics['timesteps_per_sec_fast']:10.1f}",
        f"  timesteps/sec legacy : "
        f"{metrics['timesteps_per_sec_legacy']:10.1f}",
        f"  newton iters/sec fast: "
        f"{metrics['newton_iters_per_sec_fast']:10.1f}",
        f"  median speedup       : {speedup:10.2f}x "
        f"(asserted >= {MIN_SPEEDUP}x)",
    ]))

    assert speedup >= MIN_SPEEDUP, (
        f"stamp-plan speedup {speedup:.2f}x fell below the "
        f"{MIN_SPEEDUP}x floor (per-pair: {ratios})")
    check_regression("BENCH_solver", metrics)
