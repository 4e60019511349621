"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Besides
the pytest-benchmark timing, the regenerated data is written to
``benchmarks/results/<experiment>.txt`` (and echoed to stdout) so that
``EXPERIMENTS.md``'s paper-vs-measured records can be re-derived from a
plain ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"

#: Default fraction a throughput metric may fall below its committed
#: baseline before the perf-smoke job fails the build.
REGRESSION_TOLERANCE = 0.25


def record_result(experiment: str, text: str) -> None:
    """Persist and echo one experiment's regenerated data."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {experiment} ===")
    print(text)


def record_json(experiment: str, payload: dict) -> None:
    """Persist one experiment's machine-readable metrics.

    ``BENCH_*`` reports land in ``benchmarks/results/``; compare one
    with its gated floors through
    ``repro obs diff benchmarks/baselines/BENCH_solver.json
    benchmarks/results/BENCH_solver.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = RESULTS_DIR / f"{experiment}.json"
    path.write_text(text)
    print(f"\n=== {experiment} ===")
    print(text.rstrip("\n"))


def load_baseline(experiment: str) -> dict:
    """The committed baseline metrics for ``experiment`` ({} if none)."""
    path = BASELINES_DIR / f"{experiment}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def check_regression(experiment: str, measured: dict,
                     tolerance: float = REGRESSION_TOLERANCE,
                     skip_prefixes: tuple = (),
                     skip_reason: str = "") -> None:
    """Fail if a measured metric regressed >``tolerance`` vs baseline.

    Only keys present in *both* the baseline file and ``measured`` are
    compared, and every compared metric is bigger-is-better (speedups,
    items/sec); a missing baseline file makes the check a no-op so the
    benchmarks still run on branches that have not recorded one.

    ``skip_prefixes`` exempts baseline keys from the gate with an
    explicit logged reason — e.g. ``speedup_jobs*`` on a machine with
    too few CPUs to express parallel speedup — so a skipped assertion
    is visible in the benchmark log, never silent.
    """
    baseline = load_baseline(experiment)
    for key, reference in baseline.items():
        if any(key.startswith(prefix) for prefix in skip_prefixes):
            print(f"{experiment}.{key}: regression gate skipped "
                  f"({skip_reason or 'exempted by caller'})")
            continue
        if key not in measured:
            continue
        if not isinstance(reference, (int, float)) or isinstance(
                reference, bool):
            continue
        floor = reference * (1.0 - tolerance)
        assert measured[key] >= floor, (
            f"{experiment}.{key} regressed: measured {measured[key]:.3f} "
            f"< floor {floor:.3f} (baseline {reference:.3f} "
            f"- {tolerance:.0%} tolerance)")
