"""Batched transient solver throughput: samples/sec vs batch size.

The batched sample-axis Newton engine (:mod:`repro.spice.batch`) must
deliver at least a 3x samples/sec improvement at B=32 on the paper's
transistor-level local-block Monte-Carlo workload — on one core, purely
by amortising Python dispatch over the sample axis — while staying
bit-identical to the per-sample scalar path.  The global-bitline row
(289 unknowns, sparse backend) must run at least 2x faster at B=8 than
scalar-sparse, again bit-identically.  Serial and batched runs are
interleaved rep by rep and the *best* time per configuration is
compared (min-over-reps cancels the load spikes of a noisy shared
machine without averaging them into the result); identity is asserted
on every rep, not just the fastest.
"""

from __future__ import annotations

import time

import numpy as np

from repro import FastDramDesign
from repro.cells.dram1t1c import Dram1t1cCell
from repro.spice.batch import eval_model_batch
from repro.variability.globalbitline_mc import GlobalBitlineMcModel
from repro.variability.localblock_mc import LocalBlockMcModel
from benchmarks._util import check_regression, record_json, record_result

SAMPLES = 32
BATCH_SIZES = (1, 8, 32)
REPS = 4
MIN_SPEEDUP_B32 = 3.0
SEED = 2009

#: The global-bitline row: one B=8 chunk against scalar-sparse.
GBL_SAMPLES = 8
GBL_BATCH = 8
GBL_REPS = 3
MIN_GBL_SPEEDUP_B8 = 2.0

#: Both tests add their rows to one BENCH_batch report.
_METRICS: dict = {}


def _rngs(count=SAMPLES):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(SEED).spawn(count)]


def _run_serial(model, count=SAMPLES):
    rngs = _rngs(count)
    start = time.perf_counter()
    values = [model(rng) for rng in rngs]
    return time.perf_counter() - start, values


def _run_batched(model, batch, count=SAMPLES):
    rngs = _rngs(count)
    start = time.perf_counter()
    values = []
    for chunk_start in range(0, count, batch):
        outcomes = eval_model_batch(model, rngs[chunk_start:
                                               chunk_start + batch])
        for ok, value in outcomes:
            assert ok, f"batched sample failed: {value!r}"
            values.append(value)
    return time.perf_counter() - start, values


def test_batch_throughput_and_bit_identity():
    model = LocalBlockMcModel(Dram1t1cCell.scratchpad())

    best = {size: float("inf") for size in BATCH_SIZES}
    for _ in range(REPS):
        elapsed, reference = _run_serial(model)
        best[1] = min(best[1], elapsed)
        for size in BATCH_SIZES[1:]:
            elapsed, values = _run_batched(model, size)
            # The speedup must never buy numerical drift: every batch
            # size reproduces the scalar samples bit for bit.
            assert values == reference, (
                f"B={size} drifted from the serial sample vector")
            best[size] = min(best[size], elapsed)

    speedups = {size: best[1] / best[size] for size in BATCH_SIZES}
    metrics = _METRICS
    metrics.update({
        "workload": "localblock-read MC (16 cells/LBL, 700 steps)",
        "samples": SAMPLES,
        "reps": REPS,
    })
    for size in BATCH_SIZES:
        metrics[f"samples_per_sec_b{size}"] = round(SAMPLES / best[size], 2)
    for size in BATCH_SIZES[1:]:
        metrics[f"speedup_b{size}"] = round(speedups[size], 3)
    record_json("BENCH_batch", metrics)
    record_result("batch_throughput", "\n".join([
        f"batched vs serial Newton, {SAMPLES}-sample local-block MC:",
        *(f"  B={size:>2}: {best[size] * 1e3:8.1f} ms  "
          f"{SAMPLES / best[size]:7.2f} samples/s  "
          f"({speedups[size]:5.2f}x vs serial)" for size in BATCH_SIZES),
        f"  B=32 floor: {MIN_SPEEDUP_B32}x (asserted)",
    ]))

    assert speedups[32] >= MIN_SPEEDUP_B32, (
        f"B=32 speedup {speedups[32]:.2f}x fell below the "
        f"{MIN_SPEEDUP_B32}x floor "
        f"(best times: {[round(best[s], 3) for s in BATCH_SIZES]})")
    check_regression("BENCH_batch", metrics)


def test_globalbitline_sparse_batch_throughput():
    """B=8 batched-sparse against scalar-sparse on the default
    289-unknown global bitline (``repro mc --model globalbitline``)."""
    model = GlobalBitlineMcModel(FastDramDesign().cell())
    model(np.random.default_rng(SEED))  # warm the symbolic analysis

    best_serial = best_batched = float("inf")
    for _ in range(GBL_REPS):
        elapsed, reference = _run_serial(model, GBL_SAMPLES)
        best_serial = min(best_serial, elapsed)
        elapsed, values = _run_batched(model, GBL_BATCH, GBL_SAMPLES)
        assert values == reference, (
            f"B={GBL_BATCH} drifted from the scalar-sparse samples")
        best_batched = min(best_batched, elapsed)

    speedup = best_serial / best_batched
    metrics = _METRICS
    metrics.update({
        "gbl_workload": "globalbitline-read MC (16x16, 289 unknowns, "
                        "sparse, 250 steps)",
        "gbl_samples": GBL_SAMPLES,
        "gbl_reps": GBL_REPS,
        "gbl_samples_per_sec_b1": round(GBL_SAMPLES / best_serial, 2),
        f"gbl_samples_per_sec_b{GBL_BATCH}": round(
            GBL_SAMPLES / best_batched, 2),
        f"gbl_speedup_b{GBL_BATCH}": round(speedup, 3),
    })
    record_json("BENCH_batch", metrics)
    record_result("batch_throughput_globalbitline", "\n".join([
        f"batched-sparse vs scalar-sparse, {GBL_SAMPLES}-sample "
        f"global-bitline MC:",
        f"  B= 1: {best_serial * 1e3:8.1f} ms  "
        f"{GBL_SAMPLES / best_serial:7.2f} samples/s",
        f"  B={GBL_BATCH:>2}: {best_batched * 1e3:8.1f} ms  "
        f"{GBL_SAMPLES / best_batched:7.2f} samples/s  "
        f"({speedup:5.2f}x vs serial)",
        f"  B={GBL_BATCH} floor: {MIN_GBL_SPEEDUP_B8}x (asserted)",
    ]))

    assert speedup >= MIN_GBL_SPEEDUP_B8, (
        f"global-bitline B={GBL_BATCH} speedup {speedup:.2f}x fell below "
        f"the {MIN_GBL_SPEEDUP_B8}x floor")
    check_regression("BENCH_batch", metrics)
