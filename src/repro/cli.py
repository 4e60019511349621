"""Command-line interface.

``python -m repro <command>`` regenerates the paper's artefacts from a
shell.  Commands map one-to-one onto the library's top-level API:

    headline       the abstract's figures for the 128 kb macro
    compare        Fig. 7(a-d) DRAM-vs-SRAM across sizes
    fig5           refresh busy-cycle study
    fig8           energy repartition of the fast DRAM
    fig9           total power vs activity
    methodology    the Fig. 6 three-step flow (runs circuit sims)
    pvt            corner / temperature sweep
    refresh-plan   retention-binned refresh planning
    banking        banked vs monolithic composition
    sensitivity    normalised parameter sensitivities
    mc             checkpointed retention Monte-Carlo (``--resume``)
    chaos          seeded fault-injection run (weak cells, dropped
                   refreshes, a forced solver failure) ending in a
                   degraded-but-functional report

Every command that samples randomness honours the shared ``--seed``
flag (the seed is echoed into the ``repro.obs`` run report).

Two static-analysis commands gate CI (see ``repro.analysis``):

    lint           AST unit-discipline linter over Python sources
    check          pre-solve model checker (circuits + macro configs)

The telemetry utilities post-process what ``--metrics-out`` /
``--events-out`` captured (see ``repro.obs``):

    obs export     render a run report as a Chrome trace (Perfetto /
                   chrome://tracing), CSV rows or Prometheus textfile
    obs diff       threshold-gated metric comparison of two reports;
                   exits non-zero when a metric regressed
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro import obs
from repro.core import FastDramDesign, SramDramComparison, format_table
from repro.units import MHz, Mb, kb, mV, mm2, ms, ns, pJ, si_format, uW, us

_log = logging.getLogger(__name__)


def _add_size_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb", type=int, default=128,
                        help="macro capacity in kbit (default 128)")


def _capacity(args: argparse.Namespace) -> int:
    if args.kb <= 0:
        raise SystemExit("capacity must be positive")
    return args.kb * kb


def _supervision_policy(args: argparse.Namespace):
    """Build a SupervisionPolicy from the --timeout/--retries/
    --max-sample-seconds flags; None when all are off (the executor's
    default policy: no heartbeat queue, no deadline, no retry)."""
    from repro.exec import SupervisionPolicy
    timeout = getattr(args, "timeout", 0.0)
    retries = getattr(args, "retries", 0)
    deadline = getattr(args, "max_sample_seconds", 0.0)
    if timeout <= 0 and retries <= 0 and deadline <= 0:
        return None
    return SupervisionPolicy(
        max_sample_seconds=deadline if deadline > 0 else None,
        hang_seconds=timeout if timeout > 0 else None,
        max_retries=max(0, retries),
        seed=args.seed)


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="hang watchdog: kill and retry a worker "
                             "whose heartbeat goes silent this long "
                             "(<= 0 disables)")
    parser.add_argument("--retries", type=int, default=0,
                        help="retry a failed/crashed/timed-out sample "
                             "up to N times with seeded backoff before "
                             "quarantining it (default 0)")
    parser.add_argument("--max-sample-seconds", type=float, default=0.0,
                        metavar="SECONDS",
                        help="per-sample deadline; a sample running "
                             "longer is cut off and counted as a "
                             "timeout (<= 0 disables)")


def cmd_headline(args: argparse.Namespace) -> None:
    macro = FastDramDesign().build(_capacity(args),
                                   retention_override=args.retention)
    print(macro.describe())
    print()
    print(f"energy per bit: "
          f"{si_format(macro.energy_per_bit(), 'J')} (paper: < 0.2 pJ)")


def cmd_compare(args: argparse.Namespace) -> None:
    comparison = SramDramComparison(
        sizes=(128 * kb, 512 * kb, 2 * Mb),
        retention_override=args.retention)
    sections = [
        ("Fig. 7a access time (ns)", comparison.access_time(), 1 / ns),
        ("Fig. 7b read energy (pJ)", comparison.read_energy(), 1 / pJ),
        ("Fig. 7b write energy (pJ)", comparison.write_energy(), 1 / pJ),
        ("Fig. 7c static power (uW)", comparison.static_power(), 1 / uW),
        ("Fig. 7d area (mm2)", comparison.area(), 1 / mm2),
    ]
    for title, rows, scale in sections:
        print(f"== {title} ==")
        print(format_table(
            ["size", "SRAM", "DRAM", "SRAM/DRAM"],
            [[r.size_label, r.sram * scale, r.dram * scale,
              f"{r.ratio:.2f}x"] for r in rows]))
        print()


def cmd_fig5(args: argparse.Namespace) -> None:
    import numpy as np
    from repro.refresh import (LocalizedRefresh, MonoblockRefresh,
                               RefreshSimulator, uniform_random_trace)
    rng = np.random.default_rng(args.seed)
    trace = uniform_random_trace(args.cycles, 128, 0.5, rng)
    rows = []
    with obs.span("simulate", cycles=args.cycles):
        for retention_us in (20, 100, 500, 1000):
            period = int(retention_us * us * 500 * MHz)
            entry = [f"{retention_us} us"]
            for cls in (MonoblockRefresh, LocalizedRefresh):
                policy = cls(n_blocks=128, rows_per_block=32,
                             refresh_period_cycles=period)
                with obs.span(f"policy.{cls.__name__}",
                              retention_us=retention_us):
                    stats = RefreshSimulator(policy).run(trace)
                entry.append(f"{100 * stats.busy_fraction:.3f} %")
            rows.append(entry)
    print(format_table(["retention", "monoblock", "128 localblocks"], rows))


def cmd_fig8(args: argparse.Namespace) -> None:
    comparison = SramDramComparison(retention_override=args.retention)
    repartition = comparison.energy_repartition(_capacity(args))
    print(format_table(
        ["category", "read (pJ)", "write (pJ)"],
        [[category, repartition["read"][category] / pJ,
          repartition["write"][category] / pJ]
         for category in repartition["read"]]))


def cmd_fig9(args: argparse.Namespace) -> None:
    comparison = SramDramComparison(sizes=(_capacity(args),),
                                    retention_override=args.retention)
    rows = []
    for activity in (0.001, 0.01, 0.1, 0.5, 1.0):
        point = comparison.total_power(activity, _capacity(args))
        rows.append([activity, point.sram / uW, point.dram / uW,
                     f"{point.ratio:.2f}x"])
    print(format_table(["activity", "SRAM (uW)", "DRAM (uW)", "gain"],
                       rows))


def cmd_methodology(args: argparse.Namespace) -> None:
    from repro.core import MethodologyFlow
    report = MethodologyFlow(total_bits=_capacity(args)).run()
    print(f"step 1 scratch-pad: {report.scratchpad_macro.access_time() / ns:.2f} ns, "
          f"{report.scratchpad_macro.read_energy().total / pJ:.2f} pJ")
    for wave in report.scratchpad_waveforms:
        print(f"  circuit read '{wave.stored_value}': restore "
              f"{'ok' if wave.restored_correctly else 'FAILED'}, "
              f"GBL swing {wave.gbl_swing / mV:.0f} mV")
    print(f"step 2 DRAM tech  : {report.dram_macro.access_time() / ns:.2f} ns "
          f"({report.timing_ratio:.2f}x step 1; doubling "
          f"{'holds' if report.doubling_holds else 'BROKEN'})")
    print("step 3 sizes      :")
    for row in report.size_sweep:
        print(f"  {row.total_bits // kb:5d} kb: "
              f"{row.access_time / ns:.2f} ns, {row.read_energy / pJ:.2f} pJ, "
              f"{row.area / mm2:.4f} mm2")


def cmd_pvt(args: argparse.Namespace) -> None:
    from repro.core.pvt import PvtAnalysis
    analysis = PvtAnalysis(technology=args.technology,
                           total_bits=_capacity(args), seed=args.seed)
    rows = []
    for point in analysis.sweep(temperatures=(300.0, args.hot)):
        retention = ("-" if point.worst_retention is None
                     else si_format(point.worst_retention, "s"))
        rows.append([point.label, point.access_time / ns,
                     point.read_energy / pJ, point.static_power / uW,
                     retention])
    print(format_table(
        ["corner", "access (ns)", "read (pJ)", "static (uW)",
         "worst retention"], rows))


def cmd_refresh_plan(args: argparse.Namespace) -> None:
    from repro.refresh import plan_binned_refresh
    design = FastDramDesign()
    retention = design.cell().retention_model()
    plan = plan_binned_refresh(retention, n_blocks=args.granules,
                               rows_per_block=4096 // args.granules,
                               n_bins=args.bins, seed=args.seed)
    print(format_table(
        ["bin period", "granules"],
        [[si_format(b.period, "s"), b.block_count] for b in plan.bins]))
    print(f"refresh power saving vs uniform worst-case: "
          f"{plan.saving_factor():.2f}x")


def cmd_banking(args: argparse.Namespace) -> None:
    from repro.array.banking import compare_banking_options
    options = compare_banking_options(FastDramDesign(), _capacity(args),
                                      retention_override=args.retention)
    print(format_table(
        ["banks", "access (ns)", "read (pJ)", "area (mm2)", "static (uW)"],
        [[count, memory.access_time() / ns, memory.read_energy() / pJ,
          memory.area() / mm2, memory.static_power() / uW]
         for count, memory in sorted(options.items())]))


def cmd_optimize(args: argparse.Namespace) -> None:
    from repro.core import DesignOptimizer
    from repro.obs.progress import progress_for_args
    constraint = args.max_ns * ns if args.max_ns > 0 else None
    optimizer = DesignOptimizer(total_bits=_capacity(args),
                                max_access_time=constraint,
                                activity=args.activity)
    progress = progress_for_args(args, total=len(optimizer.grid_points()),
                                 label="optimize")
    result = optimizer.run(jobs=args.jobs, progress=progress,
                           policy=_supervision_policy(args),
                           batch=args.batch)
    progress.finish()
    print(f"{len(result.candidates)} feasible candidates, "
          f"{len(result.pareto_front)} on the Pareto front")
    print()
    rows = []
    for objective, c in result.best.items():
        rows.append([objective, c.cells_per_lbl, c.word_bits, c.vdd,
                     c.access_time / ns, c.total_power / uW,
                     c.area / mm2])
    print(format_table(
        ["best for", "cells/LBL", "word", "vdd", "access (ns)",
         "power (uW)", "area (mm2)"], rows))


def cmd_voltage(args: argparse.Namespace) -> None:
    from repro.core.voltage import voltage_sweep
    points = voltage_sweep(total_bits=_capacity(args))
    print(format_table(
        ["vdd (V)", "access (ns)", "read (pJ)", "write (pJ)", "EDP (J*s)"],
        [[p.vdd, p.access_time / ns, p.read_energy / pJ,
          p.write_energy / pJ, f"{p.energy_delay_product:.3g}"]
         for p in points]))


def cmd_mc(args: argparse.Namespace) -> int:
    """Checkpointed retention Monte-Carlo with resume and budgets.

    Periodically journals progress to ``--checkpoint``; a killed run
    relaunched with ``--resume`` reproduces the uninterrupted result
    bit-for-bit (sample i always draws from seed stream i).  With
    ``--faults weak-cells`` the run also draws a seeded fault plan and
    prints the macro's degraded-mode report.
    """
    from repro.checkpoint import Checkpoint, RunBudget
    from repro.units import si_format as fmt
    from repro.variability.montecarlo import (run_monte_carlo_resumable,
                                              worst_case_gaussian,
                                              worst_case_lognormal)

    design = FastDramDesign()
    retention = design.cell().retention_model()
    if args.model == "localblock":
        from repro.variability.localblock_mc import LocalBlockMcModel
        model = LocalBlockMcModel(design.cell())
    elif args.model == "globalbitline":
        from repro.variability.globalbitline_mc import GlobalBitlineMcModel
        model = GlobalBitlineMcModel(design.cell())
    else:
        model = retention.sample_retention
    checkpoint = None
    if args.checkpoint:
        fingerprint = {"command": "mc", "samples": args.samples,
                       "seed": args.seed, "kb": args.kb}
        if args.model != "retention":
            # Keyed only when non-default so pre-existing retention
            # checkpoints stay resumable.  --batch and --jobs are
            # deliberately absent: every setting produces bit-identical
            # samples, so their checkpoints are interchangeable.
            fingerprint["model"] = args.model
        checkpoint = Checkpoint(args.checkpoint,
                                obs.config_fingerprint(fingerprint))
        if checkpoint.exists() and not args.resume:
            print(f"checkpoint {args.checkpoint} exists; pass --resume to "
                  "continue it or delete it to start over",
                  file=sys.stderr)
            return 1
    budget = RunBudget(
        max_seconds=args.max_seconds if args.max_seconds > 0 else None,
        max_failures=args.max_failures if args.max_failures > 0 else None)
    from repro.obs.progress import progress_for_args
    progress = progress_for_args(args, total=args.samples, label="mc")
    outcome = run_monte_carlo_resumable(
        model, count=args.samples, seed=args.seed,
        checkpoint=checkpoint, budget=budget, jobs=args.jobs,
        progress=progress, policy=_supervision_policy(args),
        batch=args.batch)
    progress.finish()
    if args.model in ("localblock", "globalbitline"):
        label = ("local-block" if args.model == "localblock"
                 else "global-bitline")
        print(f"{label} read-signal Monte-Carlo: {outcome.describe()}")
        if outcome.result is not None:
            result = outcome.result
            print(f"  median signal    : {fmt(result.median, 'V')}")
            print(f"  mean / std       : {fmt(result.mean, 'V')} / "
                  f"{fmt(result.std, 'V')}")
            print(f"  6-sigma worst    : "
                  f"{fmt(worst_case_gaussian(result, 6.0), 'V')}")
    else:
        print(f"retention Monte-Carlo: {outcome.describe()}")
        if outcome.result is not None:
            result = outcome.result
            print(f"  median retention : {fmt(result.median, 's')}")
            print(f"  mean / std       : {fmt(result.mean, 's')} / "
                  f"{fmt(result.std, 's')}")
            print(f"  6-sigma worst    : "
                  f"{fmt(worst_case_lognormal(result, 6.0), 's')}")
    if checkpoint is not None:
        if outcome.complete:
            checkpoint.clear()
        else:
            print(f"partial run checkpointed to {args.checkpoint}; "
                  "relaunch with --resume to finish")
    if args.faults == "weak-cells":
        from repro.faults import plan_for_organization
        macro = design.build(_capacity(args),
                             retention_override=args.retention)
        plan = plan_for_organization(
            macro.organization, seed=args.seed,
            weak_cell_fraction=0.005, retention_model=retention)
        print()
        print(plan.describe())
        print(macro.fault_assessment(plan).describe())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded end-to-end chaos run: fault injection plus a forced solver
    failure, ending in degraded-mode statistics.

    The default (``--scenario model``) exercises the model-level
    resilience layer: a fault plan drawn from the retention tail
    degrades the macro (ECC + spare-row repair), dropped and late
    refreshes perturb the interference simulator, and a stiff diode
    circuit under a starved Newton budget forces the solver recovery
    ladder to escalate.  The process-level scenarios (``kill``,
    ``hang``, ``slow``, ``flaky``, ``torn-checkpoint``, ``disk-full``,
    or all of them via ``matrix``) attack the supervised executor
    instead and gate on zero lost samples with bit-identical survivors.
    Either way the run must end with zero uncaught exceptions — that is
    the point.
    """
    if args.scenario != "model":
        return _cmd_chaos_process(args)
    import numpy as np
    from repro.faults import FaultyRefreshPolicy, plan_for_organization
    from repro.refresh import (LocalizedRefresh, RefreshSimulator,
                               uniform_random_trace)
    from repro.spice import (Circuit, Diode, Resistor, VoltageSource, dc,
                             solve_dc)
    from repro.spice.recovery import RecoveryConfig

    design = FastDramDesign()
    macro = design.build(_capacity(args), retention_override=args.retention)
    org = macro.organization

    print("== fault plan ==")
    plan = plan_for_organization(
        org, seed=args.seed, weak_cell_fraction=0.005,
        retention_model=design.cell().retention_model(),
        stuck_bit_fraction=0.001, sa_outlier_fraction=0.02,
        refresh_drop_fraction=0.002, refresh_late_fraction=0.004)
    print(plan.describe())

    print()
    print("== degraded-mode assessment ==")
    report = macro.fault_assessment(plan)
    print(report.describe())

    print()
    print("== refresh interference under faults ==")
    period = int(args.retention * 500 * MHz)
    policy = LocalizedRefresh(n_blocks=org.n_localblocks,
                              rows_per_block=org.cells_per_lbl,
                              refresh_period_cycles=period)
    trace = uniform_random_trace(args.cycles, org.n_localblocks, 0.5,
                                 np.random.default_rng(args.seed))
    with obs.span("chaos.refresh", cycles=args.cycles):
        stats = RefreshSimulator(
            FaultyRefreshPolicy(base=policy, plan=plan)).run(trace)
    print(f"  busy fraction    : {100 * stats.busy_fraction:.3f} %")
    print(f"  dropped refreshes: {stats.dropped_refreshes} "
          f"({stats.data_loss_events} data-loss events)")
    print(f"  late refreshes   : {stats.late_refreshes}")

    print()
    print("== forced solver failure ==")
    circuit = Circuit("chaos-diode")
    circuit.add(VoltageSource("v1", "in", "0", dc(5.0)))
    circuit.add(Resistor("r1", "in", "d", 100.0))
    circuit.add(Diode("d1", "d", "0"))
    # A starved Newton budget makes the plain solve fail; the recovery
    # ladder must escalate (source stepping wins) instead of raising.
    solution = solve_dc(circuit, recovery=RecoveryConfig(max_newton=10))
    print(f"  plain Newton starved at 10 iterations; ladder recovered "
          f"(diode at {solution['d']:.3f} V)")
    print()
    print("chaos run completed with zero uncaught exceptions")
    return 0


def _cmd_chaos_process(args: argparse.Namespace) -> int:
    """Process-level chaos scenarios against the supervised executor."""
    from repro.faults.chaos import run_chaos_matrix, run_chaos_scenario
    print(f"== process-level chaos: {args.scenario} ==")
    if args.scenario == "matrix":
        reports = run_chaos_matrix(count=args.samples, seed=args.seed,
                                   jobs=args.jobs)
    else:
        reports = [run_chaos_scenario(args.scenario, count=args.samples,
                                      seed=args.seed, jobs=args.jobs)]
    for report in reports:
        print(report.describe())
    if all(report.ok for report in reports):
        print("chaos run completed with zero lost samples")
        return 0
    print("chaos run LOST or DRIFTED samples — supervision contract "
          "violated", file=sys.stderr)
    return 1


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Render a run report as a Chrome trace, CSV or Prometheus text.

    ``chrome`` output (the default) loads directly into Perfetto /
    ``chrome://tracing``; the exporter validates span nesting and
    per-track timestamp monotonicity before anything is written.
    """
    import pathlib

    from repro.errors import ConfigurationError
    from repro.obs.diff import load_report
    from repro.obs.export import render_report

    try:
        report = load_report(args.report)
        text = render_report(report, args.format)
    except ConfigurationError as exc:
        print(f"repro obs export: {exc}", file=sys.stderr)
        return 1
    if args.out:
        target = pathlib.Path(args.out)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        except OSError as exc:
            print(f"repro obs export: cannot write {target}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{args.format} export written to {target}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Compare two run/benchmark reports; exit non-zero on regression.

    A metric that moved against its good direction (throughput down,
    duration up, ...) by more than ``--threshold`` is a regression —
    the non-zero exit is what lets CI gate on
    ``repro obs diff BENCH_solver.json new/BENCH_solver.json``.
    Identical reports always diff clean (exit 0, zero deltas).
    """
    from repro.errors import ConfigurationError
    from repro.obs import diff as obsdiff

    try:
        before = obsdiff.load_report(args.before)
        after = obsdiff.load_report(args.after)
        deltas = obsdiff.diff_reports(before, after,
                                      threshold=args.threshold)
    except ConfigurationError as exc:
        print(f"repro obs diff: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(obsdiff.diff_to_json(deltas))
    else:
        print(obsdiff.format_diff(deltas, threshold=args.threshold))
    return 1 if any(d.regressed for d in deltas) else 0


def cmd_sensitivity(args: argparse.Namespace) -> None:
    from repro.core.sensitivity import SensitivityAnalysis
    analysis = SensitivityAnalysis(total_bits=_capacity(args))
    print(format_table(
        ["metric", "parameter", "d(log m)/d(log p)"],
        [[s.metric, s.parameter, f"{s.value:+.3f}"]
         for s in analysis.full_report()]))


def _finish_analysis(args: argparse.Namespace, diagnostics) -> int:
    """Baseline filtering, rendering and exit-code policy for lint/check."""
    from repro.analysis import (Baseline, Severity, diagnostics_to_json,
                                format_diagnostics)
    if args.write_baseline:
        path = Baseline.from_diagnostics(diagnostics).save(args.write_baseline)
        print(f"baseline with {len(diagnostics)} finding(s) written "
              f"to {path}")
        return 0
    baseline = None
    if args.baseline:
        baseline = Baseline.load(args.baseline)
    elif not args.no_baseline:
        start = args.paths[0] if getattr(args, "paths", None) else "."
        baseline = Baseline.discover(start)
    if baseline is not None:
        before = len(diagnostics)
        diagnostics = baseline.filter(diagnostics)
        _log.info("baseline suppressed %d finding(s)",
                  before - len(diagnostics))
    if args.format == "json":
        print(diagnostics_to_json(diagnostics))
    elif diagnostics:
        print(format_diagnostics(diagnostics))
    else:
        print("no findings")
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    return 1 if errors or (args.strict and warnings) else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the AST unit-discipline linter over Python files/directories."""
    from repro.analysis import lint_paths
    with obs.span("lint", paths=len(args.paths)):
        diagnostics = lint_paths(args.paths)
    return _finish_analysis(args, diagnostics)


def cmd_check(args: argparse.Namespace) -> int:
    """Run the pre-solve model checker.

    With no paths, checks the library's builtin model registry (the
    paper's macros, refresh policies, tech nodes and the local-block
    netlists).  Paths name Python files/directories whose module-level
    model objects — and anything returned by a ``repro_check_targets()``
    hook — are checked too.
    """
    from repro.analysis.model import check_targets
    with obs.span("check", paths=len(args.paths)):
        diagnostics = check_targets(
            args.paths, include_defaults=not args.no_defaults)
    return _finish_analysis(args, diagnostics)


def cmd_audit(args: argparse.Namespace) -> int:
    """Run the determinism & parallel-safety audit (rules D3xx).

    Builds the interprocedural call graph of the given files, classifies
    every function by effect (unseeded RNG, ambient process state,
    global mutation) and reports where an effect breaks the executor's
    bit-identity contract: RNG draws not derived from a caller seed,
    wall-clock or environment values in fingerprints and checkpoints,
    global mutation in worker processes, hash-ordered reductions, and
    effect annotations contradicted by the code.
    """
    from repro.analysis import audit_paths
    with obs.span("audit", paths=len(args.paths)):
        diagnostics = audit_paths(args.paths)
    return _finish_analysis(args, diagnostics)


def _add_analysis_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="diagnostic output format (default text)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="suppress findings recorded in FILE "
                             "(default: auto-discover "
                             ".repro-lint-baseline.json upwards from the "
                             "first path)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any auto-discovered baseline file")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        nargs="?", const=".repro-lint-baseline.json",
                        help="accept all current findings into FILE "
                             "(default: .repro-lint-baseline.json in the "
                             "current directory) and exit 0")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too, not just "
                             "errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast low-leakage DRAM macro models (DATE 2009 repro)")
    parser.add_argument("--retention", type=float, default=1 * ms,
                        help="worst-case retention override, seconds "
                             "(default 1e-3)")
    # Shared flags accepted after any subcommand: instrumentation and
    # logging controls (`repro fig5 --profile --metrics-out run.json`).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--profile", action="store_true",
                        help="enable instrumentation and print the span "
                             "tree + metrics after the command")
    common.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the instrumented run report "
                             "(spans + metrics + events + series + config "
                             "fingerprint) as JSON to FILE")
    common.add_argument("--events-out", metavar="FILE", default=None,
                        help="stream structured events as JSON lines to "
                             "FILE while the command runs (implies "
                             "instrumentation)")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log INFO (-v) or DEBUG (-vv) to stderr")
    common.add_argument("--seed", type=int, default=2009,
                        help="RNG seed for every command that samples "
                             "randomness; echoed into the run report "
                             "(default 2009)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler, extra in (
        ("headline", cmd_headline, None),
        ("compare", cmd_compare, None),
        ("fig5", cmd_fig5, "fig5"),
        ("fig8", cmd_fig8, None),
        ("fig9", cmd_fig9, None),
        ("methodology", cmd_methodology, None),
        ("pvt", cmd_pvt, "pvt"),
        ("refresh-plan", cmd_refresh_plan, "plan"),
        ("banking", cmd_banking, None),
        ("voltage", cmd_voltage, None),
        ("optimize", cmd_optimize, "optimize"),
        ("sensitivity", cmd_sensitivity, None),
        ("mc", cmd_mc, "mc"),
        ("chaos", cmd_chaos, "chaos"),
    ):
        sub = subparsers.add_parser(name, help=handler.__doc__,
                                    parents=[common])
        _add_size_argument(sub)
        if extra == "fig5":
            sub.add_argument("--cycles", type=int, default=60_000)
        if extra == "optimize":
            sub.add_argument("--max-ns", type=float, default=1.3,
                             help="access-time constraint in ns "
                                  "(<= 0 disables)")
            sub.add_argument("--activity", type=float, default=0.1)
            sub.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the grid search "
                                  "(default 1 = serial; results are "
                                  "identical at any setting)")
            sub.add_argument("--batch", type=int, default=1,
                             help="grid points per worker dispatch "
                                  "(composes with --jobs; results are "
                                  "identical at any setting)")
            sub.add_argument("--progress", action="store_true",
                             help="force the live progress line even "
                                  "when stderr is not a TTY")
            _add_supervision_arguments(sub)
        if extra == "pvt":
            sub.add_argument("--technology", default="dram",
                             choices=("dram", "scratchpad", "sram"))
            sub.add_argument("--hot", type=float, default=358.0)
        if extra == "plan":
            sub.add_argument("--granules", type=int, default=128)
            sub.add_argument("--bins", type=int, default=5)
        if extra == "mc":
            sub.add_argument("--samples", type=int, default=2000,
                             help="Monte-Carlo population size")
            sub.add_argument("--checkpoint", metavar="FILE", default=None,
                             help="journal progress to FILE (append-"
                                  "only, keyed by config fingerprint)")
            sub.add_argument("--resume", action="store_true",
                             help="continue from an existing checkpoint")
            sub.add_argument("--max-seconds", type=float, default=0.0,
                             help="stop after this wall-clock budget "
                                  "(<= 0 disables)")
            sub.add_argument("--max-failures", type=int, default=0,
                             help="stop after this many failed samples "
                                  "(<= 0 disables)")
            sub.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the sample sweep "
                                  "(default 1 = serial; statistics are "
                                  "bit-identical at any setting)")
            sub.add_argument("--batch", type=int, default=1,
                             help="samples solved together by the batched "
                                  "transient engine (transistor-level "
                                  "models only; composes with --jobs — "
                                  "each worker solves one batch; "
                                  "statistics are bit-identical at any "
                                  "setting)")
            sub.add_argument("--model",
                             choices=("retention", "localblock",
                                      "globalbitline"),
                             default="retention",
                             help="retention = analytic cell retention "
                                  "draw (default); localblock = "
                                  "transistor-level local-block read "
                                  "signal, the --batch workload; "
                                  "globalbitline = full hierarchical "
                                  "bitline read (16 blocks x 16 cells), "
                                  "the sparse-backend workload")
            sub.add_argument("--faults", choices=("none", "weak-cells"),
                             default="none",
                             help="also draw a fault plan and print the "
                                  "macro's degraded-mode report")
            sub.add_argument("--progress", action="store_true",
                             help="force the live progress line even "
                                  "when stderr is not a TTY")
            _add_supervision_arguments(sub)
        if extra == "chaos":
            sub.add_argument("--cycles", type=int, default=60_000,
                             help="trace length for the faulty refresh "
                                  "interference run")
            from repro.faults.chaos import CHAOS_SCENARIOS
            sub.add_argument("--scenario",
                             choices=("model",) + CHAOS_SCENARIOS
                             + ("matrix",),
                             default="model",
                             help="model = the model-level resilience "
                                  "run (default); anything else attacks "
                                  "the supervised executor with that "
                                  "process-level fault (matrix = all)")
            sub.add_argument("--samples", type=int, default=12,
                             help="sweep width for the process-level "
                                  "scenarios (default 12)")
            sub.add_argument("--jobs", type=int, default=2,
                             help="worker processes for the process-"
                                  "level scenarios (default 2)")
        sub.set_defaults(handler=handler)

    lint = subparsers.add_parser("lint", help=cmd_lint.__doc__,
                                 parents=[common])
    lint.add_argument("paths", nargs="+", metavar="PATH",
                      help="Python files or directories to lint")
    _add_analysis_arguments(lint)
    lint.set_defaults(handler=cmd_lint)

    check = subparsers.add_parser("check", help=cmd_check.__doc__,
                                  parents=[common])
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="Python files/directories whose model objects "
                            "to check (default: builtin registry only)")
    check.add_argument("--no-defaults", action="store_true",
                       help="skip the builtin model registry and check "
                            "only the given paths")
    _add_analysis_arguments(check)
    check.set_defaults(handler=cmd_check)

    audit = subparsers.add_parser("audit", help=cmd_audit.__doc__,
                                  parents=[common])
    audit.add_argument("paths", nargs="+", metavar="PATH",
                       help="Python files or directories to audit for "
                            "determinism and parallel-safety hazards")
    _add_analysis_arguments(audit)
    audit.set_defaults(handler=cmd_audit)

    from repro.obs.diff import DEFAULT_THRESHOLD
    from repro.obs.export import EXPORT_FORMATS
    obs_parser = subparsers.add_parser(
        "obs", help="telemetry utilities: export traces, diff runs")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    export = obs_sub.add_parser("export", help=cmd_obs_export.__doc__,
                                parents=[common])
    export.add_argument("report", metavar="REPORT.json",
                        help="run report produced by --metrics-out")
    export.add_argument("--format", choices=EXPORT_FORMATS,
                        default="chrome",
                        help="output format (default chrome: a "
                             "Perfetto-loadable trace-event file)")
    export.add_argument("--out", metavar="FILE", default=None,
                        help="write the export to FILE instead of stdout")
    export.set_defaults(handler=cmd_obs_export)
    diff = obs_sub.add_parser("diff", help=cmd_obs_diff.__doc__,
                              parents=[common])
    diff.add_argument("before", metavar="BEFORE.json",
                      help="baseline run or benchmark report")
    diff.add_argument("after", metavar="AFTER.json",
                      help="candidate run or benchmark report")
    diff.add_argument("--threshold", type=float,
                      default=DEFAULT_THRESHOLD,
                      help="relative-change gate (default "
                           f"{DEFAULT_THRESHOLD:g} = "
                           f"{100 * DEFAULT_THRESHOLD:g}%%)")
    diff.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="diff output format (default text)")
    diff.set_defaults(handler=cmd_obs_diff)
    return parser


def _configure_logging(verbosity: int) -> None:
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(level)


def _report_config(args: argparse.Namespace) -> dict:
    """The run's effective configuration, for the report fingerprint.

    Observability plumbing (output paths, the progress flag) is not
    configuration — two runs differing only in where telemetry lands
    must share a fingerprint.  Neither are the supervision knobs: by
    the bit-identity contract a supervised run produces the same
    results as an unsupervised one, so deadlines/retries must not
    split fingerprints.
    """
    return {key: value for key, value in vars(args).items()
            if key not in ("handler", "profile", "metrics_out",
                           "events_out", "progress", "verbose",
                           "timeout", "retries", "max_sample_seconds")}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    profiling = bool(getattr(args, "profile", False)
                     or getattr(args, "metrics_out", None)
                     or getattr(args, "events_out", None))
    _log.info("running command %r", args.command)
    if not profiling:
        return int(args.handler(args) or 0)

    from repro.errors import ConfigurationError

    registry, tracer = obs.MetricsRegistry(), obs.Tracer()
    try:
        events = obs.EventLog(jsonl_path=getattr(args, "events_out", None))
    except ConfigurationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    timeseries = obs.TimeSeriesRecorder()
    try:
        with obs.instrumented(registry=registry, tracer=tracer,
                              events=events, timeseries=timeseries):
            with obs.span(args.command):
                rc = int(args.handler(args) or 0)
    finally:
        events.close()
    report = obs.build_run_report(args.command, _report_config(args),
                                  registry, tracer, events=events,
                                  timeseries=timeseries)
    if args.metrics_out:
        try:
            obs.write_run_report(args.metrics_out, args.command,
                                 _report_config(args), report=report)
        except OSError as exc:
            print(f"repro: cannot write run report "
                  f"{args.metrics_out}: {exc}", file=sys.stderr)
            return 1
        _log.info("run report written to %s", args.metrics_out)
    if args.profile:
        _print_profile(report, tracer)
    return rc


def _print_profile(report: dict, tracer: "obs.Tracer") -> None:
    print("\n== spans ==", file=sys.stderr)
    print(obs.format_span_tree(tracer.finished_roots()), file=sys.stderr)
    print("== metrics ==", file=sys.stderr)
    snapshot = report["metrics"]
    for counter, value in snapshot["counters"].items():
        print(f"  {counter:<40} {value:g}", file=sys.stderr)
    for gauge, value in snapshot["gauges"].items():
        print(f"  {gauge:<40} {value:g}", file=sys.stderr)
    for hist, data in snapshot["histograms"].items():
        if data["count"]:
            print(f"  {hist:<40} n={data['count']} "
                  f"mean={data['sum'] / data['count']:.2f}",
                  file=sys.stderr)
        else:
            print(f"  {hist:<40} n=0", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
