"""One workload in a fresh process: set-up, timed window, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 benchmarks/e2e/child.py --workload NAME --seed N --seconds S
        --mode setup|run|trace --profile full|smoke --scratch DIR
        --reference FILE [--trace-out FILE]

``setup`` stops after set-up (run.py repeats set-up in several
processes and reports the median).  ``run`` adds the untraced timed
window, the correctness checks and the paper-error metrics.  ``trace``
adds a second, traced window and writes the Chrome trace.  A host
probe (``hostprobe.py``) runs for the life of the process, and every
reported time is in nominal-host seconds, except the tracer's layer
times, which stay wall clock like the trace they come from.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from hostprobe import HostProbe  # noqa: E402
from workloads import (compare_reference, make_workload,  # noqa: E402
                       paper_errors, same_values)

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Reference values exist for this seed only; spot checks run at any seed.
REFERENCE_SEED = 2009


def _import_repro():
    sys.path.insert(0, str(SRC))
    import numpy
    import repro
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    return numpy


def _timed_rounds(workload, seed: int, seconds: float) -> tuple:
    """Closed loop, one caller: rounds back to back until ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(seed, len(rounds)))
        end = time.perf_counter()
        if end - start >= seconds:
            return rounds, start, end


def _window_metrics(rounds, start: float, end: float,
                    probe: HostProbe) -> Dict[str, float]:
    """Window metrics in nominal-host time (see hostprobe.py)."""
    items = sum(r.items for r in rounds)
    latencies = [probe.nominal(t0, t1) / n
                 for r in rounds for t0, t1, n in r.spans for _ in range(n)]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    window = probe.nominal(start, end)
    return {"items": items, "failed": sum(r.failed for r in rounds),
            "window_s": window, "items_per_s": items / window,
            "sample_p50_ms": 1e3 * statistics.median(latencies),
            "sample_p90_ms": 1e3 * p90,
            "samples_timed": len(latencies),
            "raw_window_s": end - start,
            "raw_items_per_s": items / (end - start)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--profile", choices=("full", "smoke"),
                        required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    probe = HostProbe()
    probe.start()
    try:
        return _measure(args, probe)
    finally:
        probe.stop()


def _measure(args, probe: HostProbe) -> int:
    numpy = _import_repro()
    t_import = time.perf_counter()
    workload = make_workload(args.workload, args.profile,
                             pathlib.Path(args.scratch))
    workload.build()
    t_build = time.perf_counter()
    workload.warmup(args.seed + 1)
    t_warm = time.perf_counter()
    out: Dict[str, Any] = {
        "setup_s": probe.nominal(_T0, t_warm),
        "setup.import_s": probe.nominal(_T0, t_import),
        "setup.build_s": probe.nominal(t_import, t_build),
        "setup.warmup_s": probe.nominal(t_build, t_warm),
        "raw_setup_s": t_warm - _T0,
        "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    rounds, start, end = _timed_rounds(workload, args.seed, args.seconds)
    out.update(_window_metrics(rounds, start, end, probe))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)

    traced = []
    if args.mode == "trace":
        from repro import obs
        from layertrace import LayerTracer, layer_metrics, write_trace
        tracer = LayerTracer()
        tracer.install()
        if hasattr(workload, "span"):
            workload.span = tracer.span
        try:
            with obs.instrumented() as registry:
                traced, start, end = _timed_rounds(workload, args.seed,
                                                   args.seconds)
                snapshot = registry.snapshot()
        finally:
            tracer.uninstall()
        window = _window_metrics(traced, start, end, probe)
        layers = layer_metrics(tracer, snapshot, end - start)
        layers["obs.trace_overhead_pct"] = 100.0 * (
            out["items_per_s"] / window["items_per_s"] - 1.0)
        out["traced_items"] = window["items"]
        out["traced_failed"] = window["failed"]
        out["layers"] = layers
        out["untraced"] = tracer.untraced
        if args.trace_out:
            write_trace(pathlib.Path(args.trace_out),
                        tracer.chrome_trace(args.workload, layers))

    out["host"] = probe.summary()
    t_check = time.perf_counter()
    mismatches: List[str] = []
    first = rounds[0]
    out["stats"] = stats = {k: float(v) for k, v in first.stats.items()}
    for index, result in enumerate(rounds[1:] + traced, start=1):
        if not same_values(result.values, first.values):
            mismatches.append(f"{args.workload}: round {index} differs from "
                              "round 0 on the same input")
    reference_path = pathlib.Path(args.reference)
    if args.seed == REFERENCE_SEED and not reference_path.is_file():
        mismatches.append(f"reference file {reference_path} is missing")
    elif args.seed == REFERENCE_SEED:
        reference = json.loads(reference_path.read_text())
        expected = reference.get(args.profile, {}).get(args.workload)
        if expected is None:
            mismatches.append(f"{args.workload}: no {args.profile} "
                              "reference entry")
        else:
            mismatches += compare_reference(args.workload, stats, expected)
    mismatches += workload.spot_checks(args.seed, first)
    out.update(paper_errors())
    out["check_s"] = probe.nominal(t_check, time.perf_counter())
    out["jobs_speedup"] = getattr(workload, "jobs_speedup", None)
    out["mismatches"] = mismatches
    workload.close()
    for process in multiprocessing.active_children():
        process.join()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
