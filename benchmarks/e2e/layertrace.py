"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps public ``repro`` functions with timers.  Two
kinds of boundary:

* *coarse* (sweep, sample, transient, batch, ``refresh.run``, executor
  sweeps, each figure) — one span each, with name, start, end, parent
  span and a trace id (the sample index, or the pass index);
* *fine* (plan builds, Newton iterates, factor, solve, checkpoint
  saves, ...) — called tens of thousands of times a second, so they
  only accumulate count, total time and self time per parent span
  name, which keeps memory bounded.

Self time is a frame's duration minus the time its wrapped children
took.  A target that no longer exists is reported as ``untraced``
instead of failing the run, so a refactor of the solver or executor
cannot break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (target "module:Qual.name", metric key, coarse?)
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("repro.variability.montecarlo:run_monte_carlo_resumable",
     "variability.sweep", True),
    ("repro.spice.batch:BatchTransientModel.__call__",
     "variability.sample", True),
    ("repro.spice.batch:eval_model_batch", "variability.sample", True),
    ("repro.variability.localblock_mc:LocalBlockMcModel.draw",
     "variability.draw_build", False),
    ("repro.variability.localblock_mc:LocalBlockMcModel.build",
     "variability.draw_build", False),
    ("repro.variability.localblock_mc:LocalBlockMcModel.measure",
     "variability.measure", False),
    ("repro.variability.globalbitline_mc:GlobalBitlineMcModel.draw",
     "variability.draw_build", False),
    ("repro.variability.globalbitline_mc:GlobalBitlineMcModel.build",
     "variability.draw_build", False),
    ("repro.variability.globalbitline_mc:GlobalBitlineMcModel.measure",
     "variability.measure", False),
    ("repro.checkpoint:Checkpoint.save", "checkpoint.save", False),
    ("repro.exec.parallel:run_parallel_sweep", "exec.sweep", True),
    ("repro.exec.supervise:run_supervised_sweep", "exec.sweep", True),
    ("repro.spice.transient:simulate_transient", "spice.transient", True),
    ("repro.spice.batch:batch_transient_outcomes", "spice.batch", True),
    ("repro.spice.stampplan:StampPlan.__init__", "spice.plan_build", False),
    ("repro.spice.batch:BatchStampPlan.__init__", "spice.plan_build", False),
    ("repro.spice.stampplan:StampPlan.solve_iterate", "spice.iterate", False),
    ("repro.spice.batch:BatchStampPlan.iterate", "spice.iterate", False),
    ("repro.spice.linalg:lu_factorize", "spice.factor", False),
    ("repro.spice.linalg:lu_factorize_batch", "spice.factor", False),
    ("repro.spice.linalg:solve_fresh_row", "spice.factor", False),
    ("repro.spice.linalg:solve_fresh_row_t", "spice.factor", False),
    ("repro.spice.linalg:solve_rows_t_into", "spice.factor", False),
    ("repro.spice.sparse:SparseContext.factorize", "spice.factor", False),
    ("repro.spice.linalg:lu_backsolve", "spice.solve", False),
    ("repro.spice.linalg:lu_backsolve_into", "spice.solve", False),
    ("repro.spice.linalg:lu_backsolve_batch", "spice.solve", False),
    ("repro.spice.sparse:SparseContext.solve", "spice.solve", False),
    ("repro.refresh.simulator:RefreshSimulator.run", "refresh.run", True),
    ("repro.core.fastdram:FastDramDesign.build", "core.build", False),
    ("repro.core.compare:SramDramComparison.access_time",
     "core.compare", False),
    ("repro.core.compare:SramDramComparison.read_energy",
     "core.compare", False),
    ("repro.core.compare:SramDramComparison.write_energy",
     "core.compare", False),
    ("repro.core.compare:SramDramComparison.static_power",
     "core.compare", False),
    ("repro.core.compare:SramDramComparison.area", "core.compare", False),
    ("repro.core.compare:SramDramComparison.energy_repartition",
     "core.compare", False),
    ("repro.core.compare:SramDramComparison.total_power",
     "core.compare", False),
    ("repro.core.methodology:MethodologyFlow.run", "core.methodology", True),
    ("repro.core.optimizer:DesignOptimizer.run", "core.optimize", True),
)

#: Coarse spans written to a trace file; later ones are only counted.
MAX_SPANS = 4000

#: Keys whose frames start a new trace id (one per sample or chunk).
_SAMPLE_KEYS = ("variability.sample",)


class LayerTracer:
    """Timers and spans around wrapped functions (single-threaded)."""

    def __init__(self) -> None:
        self.origin_ns = time.perf_counter_ns()
        # frame: [key, start_ns, child_ns, span_id or None, layer,
        #         program?, (parent span id, parent span name)]
        self._stack: List[list] = []
        self._next_id = 1
        self._layer_depth: Dict[str, int] = {}
        self._program_depth = 0
        self.spans: List[Dict[str, Any]] = []
        self.dropped_spans = 0
        #: key -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: (key, parent coarse name) -> [calls, total_ns, self_ns]
        self.fine: Dict[Tuple[str, str], List[int]] = {}
        #: layer -> time in outermost frames of that layer
        self.layer_root_ns: Dict[str, int] = {}
        #: time in outermost frames of program code (not the benchmark)
        self.attributed_ns = 0
        self.extra: Dict[str, float] = {}
        self.trace_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self.untraced: List[str] = []

    # -- frames ----------------------------------------------------------

    def _coarse_parent(self) -> Tuple[Optional[int], str]:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3], frame[0]
        return None, ""

    def enter(self, key: str, coarse: bool, program: bool = True) -> list:
        layer = key.split(".", 1)[0]
        span_id = None
        if coarse:
            span_id = self._next_id
            self._next_id += 1
        frame = [key, time.perf_counter_ns(), 0, span_id, layer, program,
                 self._coarse_parent()]
        self._stack.append(frame)
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        if program:
            self._program_depth += 1
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        key, start, child, span_id, layer, program, parent = frame
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(key, [0, 0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += own
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.layer_root_ns[layer] = (self.layer_root_ns.get(layer, 0)
                                         + duration)
        if program:
            self._program_depth -= 1
            if not self._program_depth:
                self.attributed_ns += duration
        if span_id is None:
            agg = self.fine.setdefault((key, parent[1]), [0, 0, 0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
        elif len(self.spans) < MAX_SPANS:
            self.spans.append({
                "name": key, "id": span_id, "parent": parent[0],
                "trace_id": self.trace_id,
                "start_us": (start - self.origin_ns) / 1e3,
                "dur_us": duration / 1e3, "self_us": own / 1e3})
        else:
            self.dropped_spans += 1

    def span(self, key: str, trace_id: Optional[int] = None):
        """A benchmark-side coarse span (not counted as program time)."""
        if trace_id is not None:
            self.trace_id = trace_id
        return _BenchSpan(self, key)

    # -- patching --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target, key, coarse in targets:
            module_name, qual = target.split(":")
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                parts = qual.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.untraced.append(target)
                continue
            wrapper = self._wrap(original, key, coarse)
            if owner is module:
                # Rebind every `from module import name` copy as well.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and getattr(mod, parts[-1], None) is original:
                        self._patch(mod, parts[-1], original, wrapper)
            else:
                # None marks an inherited method: restore by deletion.
                self._patch(owner, parts[-1],
                            vars(owner).get(parts[-1]), wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, key: str, coarse: bool) -> Callable:
        tracer = self
        sample = key in _SAMPLE_KEYS
        checkpoint = key == "checkpoint.save"
        refresh = key == "refresh.run"
        sweep = key == "variability.sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sweep:
                tracer.trace_id = 0
            frame = tracer.enter(key, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
                if sample:
                    width = len(args[1]) if len(args) > 1 and isinstance(
                        args[1], (list, tuple)) else 1
                    tracer.trace_id += width
                elif checkpoint:
                    tracer.add("checkpoint.bytes_written",
                               _size(args[0].path))
                elif refresh:
                    tracer.add("refresh.cycles", len(args[1]))

        return wrapper

    def add(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + value

    # -- results ---------------------------------------------------------

    def seconds(self, key: str, index: int = 1) -> float:
        return self.totals.get(key, [0, 0, 0])[index] / 1e9

    def calls(self, key: str) -> int:
        return self.totals.get(key, [0, 0, 0])[0]

    def chrome_trace(self, workload: str, metrics: Dict[str, float]) -> dict:
        """The spans as a Chrome-trace (Perfetto-loadable) document."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": f"e2e {workload}"}}]
        for span in self.spans:
            events.append({
                "name": span["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": round(span["start_us"], 3),
                "dur": round(span["dur_us"], 3),
                "args": {"id": span["id"], "parent": span["parent"],
                         "trace_id": span["trace_id"],
                         "self_us": round(span["self_us"], 3)}})
        fine = [{"name": key, "parent": parent, "calls": c,
                 "total_s": t / 1e9, "self_s": s / 1e9}
                for (key, parent), (c, t, s) in sorted(self.fine.items())]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"workload": workload,
                              "dropped_spans": self.dropped_spans,
                              "untraced": self.untraced},
                "fine": fine, "metrics": metrics}


class _BenchSpan:
    def __init__(self, tracer: LayerTracer, key: str) -> None:
        self.tracer = tracer
        self.key = key
        self.frame: Optional[list] = None

    def __enter__(self):
        self.frame = self.tracer.enter(self.key, coarse=True, program=False)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_metrics(tracer: LayerTracer, snapshot: Dict[str, Any],
                  window_s: float) -> Dict[str, float]:
    """Per-layer metrics from the tracer and a repro.obs snapshot."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    hist = snapshot.get("histograms", {}).get("spice.newton.iterations", {})
    s, n = tracer.seconds, tracer.calls
    timesteps = counters.get("spice.timesteps", 0)
    reuse = counters.get("spice.lu.reuse", 0)
    refactor = counters.get("spice.lu.refactor", 0)
    batch_samples = counters.get("spice.batch.samples", 0)
    cycles = tracer.extra.get("refresh.cycles", 0.0)
    spice_root = tracer.layer_root_ns.get("spice", 0) / 1e9
    return {
        "variability.sweep_s": s("variability.sweep"),
        "variability.sample_s": s("variability.sample"),
        "variability.draw_build_s": s("variability.draw_build"),
        "variability.measure_s": s("variability.measure"),
        "variability.sweep_self_s": s("variability.sweep", 2),
        "checkpoint.save_calls": n("checkpoint.save"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.bytes_written":
            tracer.extra.get("checkpoint.bytes_written", 0.0),
        "exec.sweep_s": s("exec.sweep"),
        "exec.self_s": s("exec.sweep", 2),
        "sweep.failures": counters.get("sweep.failures", 0),
        "sweep.worker_crashes": counters.get("sweep.worker_crashes", 0),
        "spice.transient_calls": n("spice.transient"),
        "spice.transient_s": s("spice.transient"),
        "spice.transient_self_s": s("spice.transient", 2),
        "spice.plan_builds": n("spice.plan_build"),
        "spice.plan_build_s": s("spice.plan_build"),
        "spice.iterate_calls": n("spice.iterate"),
        "spice.iterate_s": s("spice.iterate"),
        "spice.iterate_self_s": s("spice.iterate", 2),
        "spice.timesteps": timesteps,
        "spice.newton_per_step":
            hist.get("sum", 0) / hist["count"] if hist.get("count") else 0.0,
        "spice.host_us_per_timestep":
            1e6 * spice_root / timesteps if timesteps else 0.0,
        "spice.factor_calls": n("spice.factor"),
        "spice.factor_s": s("spice.factor"),
        "spice.solve_calls": n("spice.solve"),
        "spice.solve_s": s("spice.solve"),
        "spice.lu_reuse_ratio":
            reuse / (reuse + refactor) if reuse + refactor else 0.0,
        "spice.lu_evictions": counters.get("spice.lu.evictions", 0),
        "spice.sparse_symbolic": counters.get("spice.sparse.symbolic", 0),
        "spice.sparse_symbolic_reuse":
            counters.get("spice.sparse.symbolic_reuse", 0),
        "spice.sparse_fill_ratio": gauges.get("spice.sparse.fill_ratio", 0.0),
        "spice.batch_calls": n("spice.batch"),
        "spice.batch_s": s("spice.batch"),
        "spice.batch_samples": batch_samples,
        "spice.batch_ejected": counters.get("spice.batch.ejected", 0),
        "spice.batch_fallback": counters.get("spice.batch.fallback", 0),
        "spice.batch_eject_ratio":
            counters.get("spice.batch.ejected", 0) / batch_samples
            if batch_samples else 0.0,
        "refresh.run_s": s("refresh.run"),
        "refresh.cycles": cycles,
        "refresh.host_ns_per_cycle":
            1e9 * s("refresh.run") / cycles if cycles else 0.0,
        "refresh.stall_cycles": counters.get("refresh.stall_cycles", 0),
        "core.build_s": s("core.build"),
        "core.compare_s": s("core.compare"),
        "core.methodology_s": s("core.methodology"),
        "core.methodology_self_s": s("core.methodology", 2),
        "core.optimize_s": s("core.optimize"),
        "trace.unattributed_share":
            max(0.0, 1.0 - tracer.attributed_ns / 1e9 / window_s)
            if window_s > 0 else 0.0,
    }


def write_trace(path: pathlib.Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
