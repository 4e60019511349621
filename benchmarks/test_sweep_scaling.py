"""Parallel sweep executor scaling on a Monte-Carlo population.

A 64-sample Monte-Carlo run whose model does real solver work is
evaluated at ``jobs`` = 1, 2 and 4.  Two properties are checked:

* **determinism** — the sample vector is bit-identical at every job
  count (always asserted; this is the executor's core contract);
* **scaling** — ``jobs=2`` must beat serial by >= 1.1x wall-clock when
  the machine has >= 2 CPUs, and ``jobs=4`` by >= 1.8x when it has
  >= 4 (the CI perf-smoke runners do); a machine with too few CPUs
  records the numbers without failing on physics it cannot express.

One untimed warm-up run per job count comes first, then ``ROUNDS``
rounds each time serial and every parallel job count back to back.
A speedup is the *median* over rounds of the in-round ratio, as in
``test_solver_throughput.py``: a host whose speed drifts by up to 2x
within a minute moves the legs of one round together, so the ratio of
adjacent legs keeps the executor's scaling and loses most of the
drift that a single serial-then-parallel timing reads as scaling.

The jobs=2 floor is set from 16 runs of this benchmark on a shared
2-CPU host, where jobs=2 ran 1.16x-2.30x faster than serial (median
1.86x); ten alternating warm serial/jobs=2 pairs there read 0.94x-1.65x
(median 1.14x).  The floor catches an executor that stops overlapping
work, not a few percent of lost scaling.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.spice import (Capacitor, Circuit, Diode, Resistor, VoltageSource,
                         dc, simulate_transient)
from repro.variability.montecarlo import run_monte_carlo_resumable
from benchmarks._util import check_regression, record_json, record_result

SAMPLES = 64
SEED = 2009
MIN_SPEEDUP_J2 = 1.1
MIN_SPEEDUP_J4 = 1.8
JOB_COUNTS = (1, 2, 4)
ROUNDS = 5


def mc_model(rng):
    """One sample: transient settling of a diode divider with sampled
    resistance (module-level so worker processes can unpickle it)."""
    resistance = float(rng.lognormal(mean=np.log(10e3), sigma=0.2))
    circuit = Circuit("mc-divider")
    circuit.add(VoltageSource("v1", "in", "0", dc(2.0)))
    circuit.add(Resistor("r1", "in", "mid", resistance))
    circuit.add(Diode("d1", "mid", "0", v_t=0.026, v_clip=0.8))
    circuit.add(Capacitor("c1", "mid", "0", 1e-12))
    result = simulate_transient(circuit, t_stop=2e-9, dt=1e-11)
    return float(result.final_voltage("mid"))


def _timed_run(jobs):
    """One sweep at ``jobs``; returns (seconds, sample vector)."""
    start = time.perf_counter()
    outcome = run_monte_carlo_resumable(mc_model, SAMPLES, seed=SEED,
                                        jobs=jobs)
    elapsed = time.perf_counter() - start
    assert outcome.complete and outcome.failed == 0
    return elapsed, outcome.result.samples


def test_parallel_sweep_scaling_and_determinism():
    cpu_count = os.cpu_count() or 1
    reference = None
    for jobs in JOB_COUNTS:  # warm-up, untimed
        _, samples = _timed_run(jobs)
        if reference is None:
            reference = samples
    walls = {jobs: [] for jobs in JOB_COUNTS}
    for _ in range(ROUNDS):
        for jobs in JOB_COUNTS:
            elapsed, samples = _timed_run(jobs)
            walls[jobs].append(elapsed)
            # Determinism is unconditional: every job count, bit for bit.
            assert np.array_equal(samples, reference), (
                f"jobs={jobs} drifted from the serial sample vector")

    wall = {jobs: statistics.median(walls[jobs]) for jobs in JOB_COUNTS}
    ratios = {jobs: [serial / parallel for serial, parallel
                     in zip(walls[1], walls[jobs])] for jobs in JOB_COUNTS}
    speedups = {jobs: statistics.median(ratios[jobs])
                for jobs in JOB_COUNTS}
    metrics = {
        "samples": SAMPLES,
        "cpu_count": cpu_count,
        "wall_seconds_jobs1": round(wall[1], 3),
        "wall_seconds_jobs2": round(wall[2], 3),
        "wall_seconds_jobs4": round(wall[4], 3),
        "speedup_jobs2": round(speedups[2], 3),
        "speedup_jobs4": round(speedups[4], 3),
        "rounds": ROUNDS,
        "speedup_jobs2_per_round": [round(r, 3) for r in ratios[2]],
        "speedup_jobs4_per_round": [round(r, 3) for r in ratios[4]],
    }
    record_json("BENCH_sweep", metrics)
    record_result("sweep_scaling", "\n".join([
        f"{SAMPLES}-sample Monte-Carlo, {cpu_count} CPU(s), "
        f"median of {ROUNDS} warm rounds:",
        *(f"  jobs={j}: {wall[j] * 1e3:8.1f} ms  "
          f"({speedups[j]:5.2f}x vs serial)" for j in JOB_COUNTS),
        *(f"  jobs={jobs} floor: {floor}x "
          + ("(asserted)" if cpu_count >= jobs
             else f"(not asserted: only {cpu_count} CPU(s))")
          for jobs, floor in ((2, MIN_SPEEDUP_J2), (4, MIN_SPEEDUP_J4))),
    ]))

    # Each speedup floor, and its regression baseline, holds only on a
    # machine with a CPU per job; the rest are skipped with a logged
    # reason instead of silently dropping the whole check.
    unexpressible = []
    for jobs, floor in ((2, MIN_SPEEDUP_J2), (4, MIN_SPEEDUP_J4)):
        if cpu_count >= jobs:
            assert speedups[jobs] >= floor, (
                f"jobs={jobs} speedup {speedups[jobs]:.2f}x fell below "
                f"the {floor}x floor on a {cpu_count}-CPU machine")
        else:
            unexpressible.append(f"speedup_jobs{jobs}")
    check_regression(
        "BENCH_sweep", metrics, skip_prefixes=tuple(unexpressible),
        skip_reason=f"only {cpu_count} CPU(s); parallel speedup "
                    "is not expressible on this machine")
