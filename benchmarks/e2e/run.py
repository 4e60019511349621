"""End-to-end benchmark: five paper workloads, one command.

    python3 benchmarks/e2e/run.py --seed 2009 [--workload NAME]
        [--seconds S] [--trace [0|1]] [--repeat N] [--smoke]

Each workload runs in fresh child processes (``child.py``), one after
another.  Set-up (import ``repro``, build the model, one warm-up item
on seed stream ``seed+1``) is repeated in several processes and
reported as the median ``setup_s``; the last process then times the
workload's fixed input as a closed loop with one caller for
``--seconds``, checks the outputs and computes the error against the
paper.  ``--trace 1`` runs a traced window after the untraced one,
reports the per-layer metrics instead (``README.md`` lists them all)
and writes ``results/trace-<workload>.json``.

Times are in nominal-host seconds: ``hostprobe.py`` rescales wall time
by a canary loop sampled every 0.1 s, which removes the host's own speed
drift; the wall-clock values are printed beside them.

Every metric is printed with its unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Results also
go to ``benchmarks/e2e/results/latest.json`` (``results/smoke/`` with
``--smoke``).  The exit code is nonzero
when any output check fails, or when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

import hostprobe
from workloads import MIN_CPUS_FOR_SPEEDUP, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
SCRATCH = HERE / ".scratch"


#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "sample_p50_ms": "ms",
    "sample_p90_ms": "ms", "peak_rss_mb": "MB",
    "access_time_err_pct": "%", "fig8_energy_err_pct": "%",
    "static_gain_err_pct": "%", "area_gain_err_pct": "%",
}
#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    "variability.sweep_s": "s", "variability.sample_s": "s",
    "variability.draw_build_s": "s", "variability.measure_s": "s",
    "variability.sweep_self_s": "s",
    "checkpoint.save_calls": "count", "checkpoint.save_s": "s",
    "checkpoint.bytes_written": "bytes",
    "exec.sweep_s": "s", "exec.self_s": "s",
    "sweep.failures": "count", "sweep.worker_crashes": "count",
    "spice.transient_calls": "count", "spice.transient_s": "s",
    "spice.transient_self_s": "s", "spice.plan_builds": "count",
    "spice.plan_build_s": "s", "spice.iterate_calls": "count",
    "spice.iterate_s": "s", "spice.iterate_self_s": "s",
    "spice.timesteps": "count", "spice.newton_per_step": "count",
    "spice.host_us_per_timestep": "us",
    "spice.factor_calls": "count", "spice.factor_s": "s",
    "spice.solve_calls": "count", "spice.solve_s": "s",
    "spice.lu_reuse_ratio": "ratio", "spice.lu_evictions": "count",
    "spice.sparse_symbolic": "count", "spice.sparse_symbolic_reuse": "count",
    "spice.sparse_fill_ratio": "ratio",
    "spice.batch_calls": "count", "spice.batch_s": "s",
    "spice.batch_samples": "count", "spice.batch_ejected": "count",
    "spice.batch_fallback": "count", "spice.batch_eject_ratio": "ratio",
    "refresh.run_s": "s", "refresh.cycles": "count",
    "refresh.host_ns_per_cycle": "ns", "refresh.stall_cycles": "count",
    "core.build_s": "s", "core.compare_s": "s", "core.methodology_s": "s",
    "core.methodology_self_s": "s", "core.optimize_s": "s",
    "setup.import_s": "s", "setup.build_s": "s", "setup.warmup_s": "s",
    "check_s": "s", "obs.trace_overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}
#: Metrics whose run-to-run spread ``--repeat`` compares with the bound.
TIMING_UNITS = ("s", "ms", "1/s", "us", "ns")

#: Set-up is measured in this many fresh processes (median reported).
SETUP_REPEATS = {"full": 3, "smoke": 1}
DEFAULT_SECONDS = {"full": 10.0, "smoke": 0.1}
CHILD_TIMEOUT_S = 170.0
#: A canary drifting more than this between the two ends of a workload
#: means the host changed speed under the measurement.
CANARY_DRIFT = 0.10


class ChildFailed(Exception):
    """A child process crashed or timed out."""


def canary_s() -> float:
    """Host speed now: median of a few canary loops (hostprobe.py)."""
    return statistics.median(hostprobe.canary_s() for _ in range(9))


def _filesystem(path: pathlib.Path) -> str:
    stat = shutil.which("stat")
    if stat is None:
        return "unknown"
    done = subprocess.run([stat, "-f", "-c", "%T", str(path)],
                          capture_output=True, text=True, timeout=10)
    return done.stdout.strip() or "unknown"


def run_child(workload: str, mode: str, args, scratch: pathlib.Path,
              trace_out: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--mode", mode,
               "--profile", args.profile, "--scratch", str(scratch),
               "--reference", str(args.reference)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Its own process group, so a timeout can stop the pool workers too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"{workload} ({mode}) timed out after "
                          f"{CHILD_TIMEOUT_S:g} s")
    except BaseException:  # interrupted: stop the child, then re-raise
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code "
                          f"{child.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> Dict[str, Any]:
    """One measurement of one workload: metrics, checks, environment."""
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    canary_before = canary_s()
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.profile] - 1):
            setups.append(run_child(workload, "setup", args, scratch))
    mode = "trace" if args.trace else "run"
    trace_out = (args.results / f"trace-{workload}.json" if args.trace
                 else None)
    main = run_child(workload, mode, args, scratch, trace_out)
    setups.append(main)
    canary_after = canary_s()

    if args.trace:
        layers = dict(main["layers"])
        for key in ("setup.import_s", "setup.build_s", "setup.warmup_s",
                    "check_s"):
            layers[key] = main[key]
        metrics = {name: float(layers[name]) for name in PER_LAYER}
        units = PER_LAYER
        attempted = main["items"] + main["traced_items"]
        failed = main["failed"] + main["traced_failed"]
    else:
        values = dict(main)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: float(values[name]) for name in END_TO_END}
        units = END_TO_END
        attempted, failed = main["items"], main["failed"]
    drift = abs(canary_after / canary_before - 1.0)
    return {
        "workload": workload, "seed": args.seed,
        "metrics": metrics, "units": units,
        "attempted": attempted, "failed": failed,
        "mismatches": main["mismatches"], "stats": main["stats"],
        "untraced": main.get("untraced", []),
        "samples_timed": main["samples_timed"],
        "window_s": main["window_s"],
        "raw": {key: main[key] for key in
                ("raw_setup_s", "raw_window_s", "raw_items_per_s")
                if key in main},
        "host": main["host"],
        "environment": {
            "numpy": main["numpy"],
            "canary_before_s": canary_before,
            "canary_after_s": canary_after,
            "canary_drift": drift,
            "canary_flagged": drift > CANARY_DRIFT,
            "jobs_speedup": main["jobs_speedup"],
        },
    }


def environment(nproc: int) -> Dict[str, Any]:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "temp_dir": str(SCRATCH.relative_to(ROOT)),
        "temp_dir_filesystem": _filesystem(SCRATCH),
        "jobs_speedup": ("measured" if nproc >= MIN_CPUS_FOR_SPEEDUP else
                         f"unmeasured: nproc {nproc} < "
                         f"{MIN_CPUS_FOR_SPEEDUP}"),
    }


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def load_bounds() -> Dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def print_run(run: Dict[str, Any]) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, "
          f"{run['attempted']} items, {run['samples_timed']} sample "
          f"latencies, {run['window_s']:.2f} s window) ==")
    for name, value in run["metrics"].items():
        print(f"  {name:<30} {value:>14.6g} {run['units'][name]}")
    raw = ", ".join(f"{k[4:]} {v:.6g}" for k, v in run["raw"].items())
    print(f"  wall clock (not host-corrected): {raw}")
    host = run["host"]
    print(f"  host canary {host['canary_median_ms']:.3f} ms median "
          f"({host['canary_min_ms']:.3f}-{host['canary_max_ms']:.3f}, "
          f"nominal {host['canary_nominal_ms']:.3f}) over "
          f"{host['canary_samples']} samples")
    env = run["environment"]
    flag = "  DRIFT>10% (flagged)" if env["canary_flagged"] else ""
    print(f"  canary {1e3 * env['canary_before_s']:.3f} ms -> "
          f"{1e3 * env['canary_after_s']:.3f} ms{flag}")
    if run["untraced"]:
        print(f"  untraced (targets no longer exist): "
              f"{', '.join(run['untraced'])}")
    for problem in run["mismatches"]:
        print(f"  MISMATCH {problem}")


def summarise(workload: str, runs: List[Dict[str, Any]],
              bounds: Dict[str, float]) -> Dict[str, Any]:
    """Median and IQR/median per metric over ``--repeat`` runs."""
    print(f"== {workload}: {len(runs)} runs ==")
    summary = {}
    for name, unit in runs[0]["units"].items():
        values = [r["metrics"][name] for r in runs]
        share = spread(values)
        median = statistics.median(values)
        bound = bounds.get(name)
        noisy = (unit in TIMING_UNITS and bound is not None
                 and share > bound)
        summary[name] = {"median": median, "iqr_over_median": share,
                         "unit": unit, "over_bound": noisy}
        flag = f"  SPREAD > bound {bound:g}" if noisy else ""
        print(f"  {name:<30} {median:>14.6g} {unit:<6} "
              f"IQR/median {share:.4f}{flag}")
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per workload (default 10, "
                             "smoke 0.1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, print per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints median and "
                             "IQR/median per metric")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes for the smoke test")
    parser.add_argument("--reference", type=pathlib.Path,
                        default=HERE / "reference.json",
                        help="reference values checked at seed 2009")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    args.profile = "smoke" if args.smoke else "full"
    # Smoke results never overwrite the committed full-size traces.
    args.results = RESULTS / "smoke" if args.smoke else RESULTS
    if args.seconds is None:
        args.seconds = DEFAULT_SECONDS[args.profile]

    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    bounds = load_bounds()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    report: Dict[str, Any] = {"environment": env, "profile": args.profile,
                              "trace": args.trace, "workloads": {}}
    results: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    try:
        for workload in workloads:
            runs = []
            for _ in range(args.repeat):
                run = run_workload(workload, args)
                print_run(run)
                runs.append(run)
                attempted += run["attempted"]
                failed += run["failed"]
                correct = correct and not run["mismatches"]
            entry: Dict[str, Any] = {"runs": runs}
            if args.repeat > 1:
                entry["summary"] = summarise(workload, runs, bounds)
                medians = {k: v["median"]
                           for k, v in entry["summary"].items()}
            else:
                medians = runs[0]["metrics"]
            results[workload] = {
                name: {"value": value, "unit": runs[0]["units"][name]}
                for name, value in medians.items()}
            report["workloads"][workload] = entry
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / "latest.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    if len(workloads) == 1:
        metrics = results[workloads[0]]
    else:
        metrics = {f"{w}.{name}": entry for w, values in results.items()
                   for name, entry in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
