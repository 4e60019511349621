"""The five end-to-end workloads: build, warm-up, one timed round, checks.

Each workload calls the same public functions the ``repro`` CLI calls
(``run_monte_carlo_resumable`` for ``repro mc``, the figure classes for
``repro headline/compare/fig5/fig8/fig9/methodology/optimize``).  A
*round* is one fixed input; the child process repeats rounds until the
timed window is used up, and every round must reproduce the first one
bit for bit.

Nothing here imports ``repro`` at module level: the child measures the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import pathlib
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

#: Round sizes.  ``full`` is the measured benchmark; ``smoke`` is the
#: seconds-long variant the smoke test drives.
PROFILES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "mc-localblock": {"count": 40, "batch": 1},
        "mc-localblock-batch": {"count": 128, "batch": 32},
        "mc-globalbitline": {"count": 8, "batch": 8},
        "mc-retention-ckpt": {"count": 10000, "jobs": 2},
        "paper-figures": {"fig5_cycles": 60000},
    },
    "smoke": {
        "mc-localblock": {"count": 4, "batch": 1},
        "mc-localblock-batch": {"count": 8, "batch": 4},
        "mc-globalbitline": {"count": 2, "batch": 2},
        "mc-retention-ckpt": {"count": 1024, "jobs": 2},
        "paper-figures": {"fig5_cycles": 20000},
    },
}

#: Paper values behind the four error metrics (EXPERIMENTS.md E2-E8).
PAPER_ACCESS_NS = 1.3
PAPER_FIG8_PJ = {("read", "decode"): 1.0, ("read", "cell"): 0.50,
                 ("read", "localblock"): 1.1, ("read", "global_path"): 0.56,
                 ("write", "decode"): 1.6, ("write", "cell"): 0.62,
                 ("write", "localblock"): 1.2}
PAPER_STATIC_GAIN = 10.0
PAPER_AREA_GAIN = 2.7

#: EXPERIMENTS.md pins the refresh basis to the DRAM cell's 6-sigma
#: worst case so the figures are deterministic (benchmarks/conftest.py).
RETENTION_S = 1e-3
FIG5_RETENTIONS_US = (20, 100, 500, 1000)
#: Seed-independent Fig. 5 shape: localized refresh busy time below 5 %
#: of monoblock's (benchmarks/test_fig5_refresh_busy.py).  The gain
#: itself moves with the random trace: 95x holds at seed 2009 for 20 us
#: but not at every seed or retention.
MIN_FIG5_GAIN = 20.0
DENSE_SPARSE_TOL_V = 1e-9
#: Below this many CPUs a --jobs speedup is reported as unmeasured.
MIN_CPUS_FOR_SPEEDUP = 4


class CompletionClock:
    """Progress sink for ``run_monte_carlo_resumable``: records when
    samples reach the caller.

    Samples are timed in consecutive groups of ``group``: the unit in
    which the sweep hands results back (one batch chunk, or one
    checkpoint interval of a merged parallel sweep).  Each sample of a
    group gets the group's elapsed time divided by its size, so
    per-sample latency is the caller-visible time per sample whatever
    the chunking.
    """

    def __init__(self, group: int) -> None:
        self.group = group
        self.start = time.perf_counter()
        self._ends: List[float] = []

    def note_restored(self, count: int) -> None:
        pass

    def advance(self, completed: int = 0, failed: int = 0) -> None:
        now = time.perf_counter()
        self._ends.extend([now] * (completed + failed))

    def spans(self) -> List[Tuple[float, float, int]]:
        """``(start, end, items)`` per group, back to back."""
        out = []
        prev = self.start
        for first in range(0, len(self._ends), self.group):
            group = self._ends[first:first + self.group]
            out.append((prev, group[-1], len(group)))
            prev = group[-1]
        return out


@dataclasses.dataclass
class RoundResult:
    """One round: its items, timed spans and checked values."""

    items: int
    failed: int
    spans: List[Tuple[float, float, int]]  # (start, end, items) timed
    values: Any          # bit-compared across rounds
    stats: Dict[str, float]


def same_values(a, b) -> bool:
    """Equal figure dicts, or bit-identical sample arrays."""
    if isinstance(a, dict):
        return a == b
    import numpy as np
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _mc_stats(outcome, lognormal: bool) -> Dict[str, float]:
    from repro.variability.montecarlo import (worst_case_gaussian,
                                              worst_case_lognormal)
    result = outcome.result
    worst = (worst_case_lognormal(result, 6.0) if lognormal
             else worst_case_gaussian(result, 6.0))
    return {"completed": outcome.completed, "failed": outcome.failed,
            "median": result.median, "mean": result.mean,
            "std": result.std, "worst_6sigma": worst}


# -- Monte-Carlo workloads ----------------------------------------------------


class McWorkload:
    """A ``repro mc`` sweep of one model at fixed size."""

    lognormal = False

    def __init__(self, name: str, sizes: Dict[str, int],
                 scratch: pathlib.Path) -> None:
        self.name = name
        self.count = sizes["count"]
        self.batch = sizes.get("batch", 1)
        self.jobs = sizes.get("jobs", 1)
        #: Samples the sweep returns at once (see CompletionClock).
        self.group = self.batch
        self.scratch = scratch
        self.model: Any = None

    def build(self) -> None:
        raise NotImplementedError

    def _checkpoint(self, tag: str, seed: int):
        return None

    def sweep(self, seed: int, count: int, batch: int = 0, jobs: int = 0,
              progress=None, checkpoint=None, model=None):
        from repro.variability.montecarlo import run_monte_carlo_resumable
        return run_monte_carlo_resumable(
            self.model if model is None else model, count=count, seed=seed,
            checkpoint=checkpoint, jobs=jobs or self.jobs,
            batch=batch or self.batch, progress=progress)

    def warmup(self, seed: int) -> None:
        checkpoint = self._checkpoint("warmup", seed)
        self.sweep(seed, count=min(self.count, 64 if self.jobs > 1 else 2),
                   batch=min(self.batch, 2), checkpoint=checkpoint)
        if checkpoint is not None:
            checkpoint.clear()

    def round(self, seed: int, index: int) -> RoundResult:
        clock = CompletionClock(self.group)
        checkpoint = self._checkpoint(f"round{index}", seed)
        outcome = self.sweep(seed, self.count, progress=clock,
                             checkpoint=checkpoint)
        spans = clock.spans()
        if checkpoint is not None:
            checkpoint.clear()
        return RoundResult(items=outcome.attempted, failed=outcome.failed,
                           spans=spans,
                           values=outcome.result.samples,
                           stats=_mc_stats(outcome, self.lognormal))

    def spot_checks(self, seed: int, first: RoundResult) -> List[str]:
        return []

    def close(self) -> None:
        pass


class LocalBlockWorkload(McWorkload):
    def build(self) -> None:
        from repro.core import FastDramDesign
        from repro.variability.localblock_mc import LocalBlockMcModel
        self.model = LocalBlockMcModel(FastDramDesign().cell())

    def spot_checks(self, seed: int, first: RoundResult) -> List[str]:
        width = min(4, self.count)
        if self.batch == 1:
            # B=1 (the timed path) against B=4 on the first samples.
            other = self.sweep(seed, width, batch=width).result.samples
            label = f"B=1 vs B={width}"
        else:
            # The first batched chunk against the scalar path.
            width = min(self.batch, self.count)
            other = self.sweep(seed, width, batch=1).result.samples
            label = f"first B={self.batch} chunk vs scalar"
        if not same_values(first.values[:width], other):
            return [f"{self.name}: {label} samples differ"]
        return []


class GlobalBitlineWorkload(McWorkload):
    def build(self) -> None:
        from repro.core import FastDramDesign
        from repro.variability.globalbitline_mc import GlobalBitlineMcModel
        self.model = GlobalBitlineMcModel(FastDramDesign().cell())

    def spot_checks(self, seed: int, first: RoundResult) -> List[str]:
        import copy
        dense = copy.copy(self.model)
        dense.backend = "dense"
        values = self.sweep(seed, 2, batch=1, model=dense).result.samples
        worst = max(abs(a - b) for a, b in zip(first.values[:2], values))
        if not worst <= DENSE_SPARSE_TOL_V:
            return [f"{self.name}: dense vs sparse differ by {worst:.3g} V "
                    f"(> {DENSE_SPARSE_TOL_V:g} V)"]
        return []


class RetentionCheckpointWorkload(McWorkload):
    lognormal = True

    def __init__(self, name: str, sizes: Dict[str, int],
                 scratch: pathlib.Path) -> None:
        super().__init__(name, sizes, scratch)
        # The sweep's default save_every: one group per checkpoint save.
        self.group = 64

    def build(self) -> None:
        from repro.core import FastDramDesign
        self.model = FastDramDesign().cell().retention_model() \
            .sample_retention

    def _checkpoint(self, tag: str, seed: int):
        from repro import obs
        from repro.checkpoint import Checkpoint
        path = self.scratch / f"{tag}.json"
        if path.exists():
            path.unlink()
        # Keyed like `repro mc --checkpoint`.
        fingerprint = obs.config_fingerprint(
            {"command": "mc", "samples": self.count, "seed": seed,
             "kb": 128})
        return Checkpoint(path, fingerprint)

    def spot_checks(self, seed: int, first: RoundResult) -> List[str]:
        start = time.perf_counter()
        serial = self.sweep(seed, self.count, jobs=1).result.samples
        if len(os.sched_getaffinity(0)) >= MIN_CPUS_FOR_SPEEDUP:
            serial_s = time.perf_counter() - start
            start = time.perf_counter()
            self.sweep(seed, self.count)
            self.jobs_speedup = serial_s / (time.perf_counter() - start)
        if not same_values(first.values, serial):
            return [f"{self.name}: jobs={self.jobs} checkpointed samples "
                    "differ from the jobs=1 run without a checkpoint"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- paper figures ------------------------------------------------------------


def paper_errors() -> Dict[str, float]:
    """The four error metrics against the paper, in percent."""
    from repro.core import FastDramDesign, SramDramComparison
    from repro.units import Mb, kb, ns, pJ
    macro = FastDramDesign().build(128 * kb, retention_override=RETENTION_S)
    comparison = SramDramComparison(sizes=(128 * kb, 2 * Mb),
                                    retention_override=RETENTION_S)
    repartition = comparison.energy_repartition(128 * kb)
    fig8 = max(abs(repartition[op][cat] / pJ - paper) / paper
               for (op, cat), paper in PAPER_FIG8_PJ.items())
    static = comparison.static_power()[-1].ratio
    area = comparison.area()[-1].ratio
    return {
        "access_time_err_pct":
            100 * abs(macro.access_time() / ns - PAPER_ACCESS_NS)
            / PAPER_ACCESS_NS,
        "fig8_energy_err_pct": 100 * fig8,
        "static_gain_err_pct":
            100 * abs(static - PAPER_STATIC_GAIN) / PAPER_STATIC_GAIN,
        "area_gain_err_pct":
            100 * abs(area - PAPER_AREA_GAIN) / PAPER_AREA_GAIN,
    }


class PaperFiguresWorkload:
    """One pass over the headline, Figs. 5-9 and E17; item = one pass."""

    def __init__(self, name: str, sizes: Dict[str, int],
                 scratch: pathlib.Path) -> None:
        self.name = name
        self.cycles = sizes["fig5_cycles"]
        #: Span factory for the figure sections; the traced window swaps
        #: in LayerTracer.span.
        self.span: Callable[..., Any] = \
            lambda name, trace_id=None: contextlib.nullcontext()

    def build(self) -> None:
        from repro.core import SramDramComparison
        from repro.units import Mb, kb
        self.comparison = SramDramComparison(sizes=(128 * kb, 2 * Mb),
                                             retention_override=RETENTION_S)

    def warmup(self, seed: int) -> None:
        self.figures(seed)

    def figures(self, seed: int) -> Dict[str, float]:
        import numpy as np
        from repro.core import DesignOptimizer, FastDramDesign, MethodologyFlow
        from repro.refresh import (LocalizedRefresh, MonoblockRefresh,
                                   RefreshSimulator, uniform_random_trace)
        from repro.units import kb, mV, mm2, ns, pJ, uW
        out: Dict[str, float] = {}
        with self.span("figure.headline"):
            summary = FastDramDesign().build(
                128 * kb, retention_override=RETENTION_S).summary()
        out["E8.access_ns"] = summary["access_time_s"] / ns
        out["E8.energy_per_bit_pj"] = summary["read_energy_per_bit_j"] / pJ
        out["E8.read_pj"] = summary["read_energy_j"] / pJ

        c = self.comparison
        with self.span("figure.fig7"):
            for fig, rows, scale in (("E2", c.access_time(), 1 / ns),
                                     ("E3.read", c.read_energy(), 1 / pJ),
                                     ("E3.write", c.write_energy(), 1 / pJ),
                                     ("E4", c.static_power(), 1 / uW),
                                     ("E5", c.area(), 1 / mm2)):
                for row in rows:
                    size = row.size_label.replace(" ", "")
                    out[f"{fig}.{size}.sram"] = row.sram * scale
                    out[f"{fig}.{size}.dram"] = row.dram * scale
                    if fig in ("E4", "E5"):
                        out[f"{fig}.{size}.gain"] = row.ratio
        with self.span("figure.fig8"):
            repartition = c.energy_repartition(128 * kb)
        for op in ("read", "write"):
            for cat, value in repartition[op].items():
                out[f"E6.{op}.{cat}_pj"] = value / pJ
        with self.span("figure.fig9"):
            for bits, size in ((128 * kb, "128kb"), (2048 * kb, "2Mb")):
                for activity in (0.001, 1.0):
                    out[f"E7.{size}.gain@{activity:g}"] = c.total_power(
                        activity, bits).ratio

        with self.span("figure.fig6"):
            report = MethodologyFlow().run()
        out["E9.step1_access_ns"] = report.scratchpad_macro.access_time() / ns
        out["E9.step1_read_pj"] = \
            report.scratchpad_macro.read_energy().total / pJ
        out["E9.gbl_swing_read0_mv"] = \
            report.scratchpad_waveforms[0].gbl_swing / mV
        out["E9.restore_ok"] = float(all(
            w.restored_correctly for w in report.scratchpad_waveforms))
        out["E9.timing_ratio"] = report.timing_ratio

        with self.span("figure.fig5"):
            trace = uniform_random_trace(self.cycles, 128, 0.5,
                                         np.random.default_rng(seed))
            for retention_us in FIG5_RETENTIONS_US:
                # The period expression of benchmarks/test_fig5_refresh_
                # busy.py, whose output EXPERIMENTS.md E1 records (it
                # truncates 100 us to 49999 cycles, 20 us to 10000).
                period = int(retention_us * 1e-6 * 500e6)
                busy = {}
                for cls in (MonoblockRefresh, LocalizedRefresh):
                    policy = cls(n_blocks=128, rows_per_block=32,
                                 refresh_period_cycles=period)
                    busy[cls] = RefreshSimulator(policy).run(trace) \
                        .busy_fraction
                mono, local = busy[MonoblockRefresh], busy[LocalizedRefresh]
                out[f"E1.{retention_us}us.mono_pct"] = 100 * mono
                out[f"E1.{retention_us}us.local_pct"] = 100 * local
                out[f"E1.{retention_us}us.gain"] = mono / max(local, 1e-12)

        with self.span("figure.e17"):
            result = DesignOptimizer(max_access_time=1.3 * ns,
                                     activity=0.1).run()
        paper = next(p for p in result.candidates
                     if p.cells_per_lbl == 32 and p.word_bits == 32
                     and abs(p.vdd - 1.2) < 1e-9)
        out["E17.candidates"] = float(len(result.candidates))
        out["E17.front"] = float(len(result.pareto_front))
        out["E17.paper_point_dominated"] = float(any(
            p.dominates(paper) for p in result.candidates))
        return out

    def round(self, seed: int, index: int) -> RoundResult:
        start = time.perf_counter()
        with self.span("figure.pass", trace_id=index):
            values = self.figures(seed)
        return RoundResult(items=1, failed=0,
                           spans=[(start, time.perf_counter(), 1)],
                           values=values, stats=values)

    def spot_checks(self, seed: int, first: RoundResult) -> List[str]:
        problems = []
        for retention_us in FIG5_RETENTIONS_US:
            gain = first.values[f"E1.{retention_us}us.gain"]
            if not gain >= MIN_FIG5_GAIN:
                problems.append(
                    f"{self.name}: Fig. 5 localized gain at {retention_us} us "
                    f"is {gain:.1f}x (< {MIN_FIG5_GAIN:g}x)")
        if first.values["E9.restore_ok"] != 1.0:
            problems.append(f"{self.name}: Fig. 6 local restore failed")
        if first.values["E17.paper_point_dominated"] != 0.0:
            problems.append(f"{self.name}: E17 paper point is dominated")
        return problems

    def close(self) -> None:
        pass


#: Workload name -> implementation (BENCHMARK.json and README.md say
#: why each one is in the benchmark).
WORKLOADS: Dict[str, type] = {
    "mc-localblock": LocalBlockWorkload,
    "mc-localblock-batch": LocalBlockWorkload,
    "mc-globalbitline": GlobalBitlineWorkload,
    "mc-retention-ckpt": RetentionCheckpointWorkload,
    "paper-figures": PaperFiguresWorkload,
}


def make_workload(name: str, profile: str, scratch: pathlib.Path):
    return WORKLOADS[name](name, PROFILES[profile][name], scratch)


def compare_reference(name: str, stats: Dict[str, float],
                      reference: Dict[str, Any]) -> List[str]:
    """Differences between a first round and its reference entry.

    Monte-Carlo statistics compare within relative 1e-9; paper-figure
    values compare at the decimals EXPERIMENTS.md prints them with
    (``{"value": v, "decimals": d}``).
    """
    problems = []
    for key, expected in sorted(reference.items()):
        if key not in stats:
            problems.append(f"{name}: reference value {key} was not produced")
            continue
        got = stats[key]
        if isinstance(expected, dict):
            digits = expected["decimals"]
            # Half a unit of the last printed digit, plus a tenth for
            # values rounded twice (3.3746 -> 3.375 -> 3.38).
            if abs(got - expected["value"]) > 0.55 * 10.0 ** -digits:
                shown = max(digits, 0)
                problems.append(
                    f"{name}: {key} = {got:.{shown}f}, reference "
                    f"{expected['value']:.{shown}f}")
        elif not math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"{name}: {key} = {got!r}, reference "
                            f"{expected!r}")
    return problems
