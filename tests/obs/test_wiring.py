"""The instrumentation actually wired into the simulation stack."""

import numpy as np
import pytest

from repro import FastDramDesign, obs
from repro.errors import ConvergenceError


class TestRefreshWiring:
    def test_run_publishes_counters_and_span(self):
        from repro.refresh import (MonoblockRefresh, RefreshSimulator,
                                   uniform_random_trace)
        rng = np.random.default_rng(7)
        trace = uniform_random_trace(5000, 16, 0.5, rng)
        policy = MonoblockRefresh(n_blocks=16, rows_per_block=8,
                                  refresh_period_cycles=2000)
        with obs.instrumented() as registry:
            stats = RefreshSimulator(policy).run(trace)
        snap = registry.snapshot()
        assert snap["counters"]["refresh.stall_cycles"] == stats.stall_cycles
        assert (snap["counters"]["refresh.refreshes_issued"]
                == stats.refreshes_issued)
        assert (snap["gauges"]["refresh.busy_fraction.MonoblockRefresh"]
                == pytest.approx(stats.busy_fraction))
        roots = obs.tracer()  # restored after instrumented() exits
        assert roots.finished_roots() == []

    def test_run_span_recorded(self):
        from repro.refresh import (LocalizedRefresh, RefreshSimulator,
                                   uniform_random_trace)
        rng = np.random.default_rng(7)
        trace = uniform_random_trace(2000, 16, 0.3, rng)
        policy = LocalizedRefresh(n_blocks=16, rows_per_block=8,
                                  refresh_period_cycles=2000)
        tracer = obs.Tracer()
        with obs.instrumented(tracer=tracer):
            RefreshSimulator(policy).run(trace)
        (root,) = tracer.finished_roots()
        assert root.name == "refresh.run"
        assert root.attrs["policy"] == "LocalizedRefresh"


class TestSpiceWiring:
    def _rc_circuit(self):
        from repro.spice import Capacitor, Circuit, Resistor, VoltageSource, dc
        c = Circuit("rc")
        c.add(VoltageSource("v1", "in", "0", dc(1.0)))
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        return c

    def test_transient_records_span_and_iterations(self):
        from repro.spice import simulate_transient
        tracer = obs.Tracer()
        with obs.instrumented(tracer=tracer) as registry:
            simulate_transient(self._rc_circuit(), 1e-9, 1e-11)
        (root,) = tracer.finished_roots()
        assert root.name == "spice.transient"
        assert root.attrs["circuit"] == "rc"
        snap = registry.snapshot()
        assert snap["counters"]["spice.timesteps"] == 100
        hist = snap["histograms"]["spice.newton.iterations"]
        assert hist["count"] == 100  # one observation per output timestep
        # The default "auto" backend records its kernel choice.
        assert snap["counters"]["spice.sparse.auto.dense"] == 1

    def test_convergence_error_carries_diagnostics(self):
        exc = ConvergenceError("Newton failed", time=1.5e-9,
                               iterations=250, worst_node="gbl")
        message = str(exc)
        assert "t=1.5e-09s" in message
        assert "250 Newton iterations" in message
        assert "'gbl'" in message
        assert exc.time == 1.5e-9
        assert exc.iterations == 250
        assert exc.worst_node == "gbl"

    def test_convergence_error_plain_message_unchanged(self):
        assert str(ConvergenceError("plain")) == "plain"


class TestMacroWiring:
    def test_build_and_summary_record_spans_and_gauges(self):
        from repro.units import kb
        tracer = obs.Tracer()
        with obs.instrumented(tracer=tracer) as registry:
            macro = FastDramDesign().build(128 * kb,
                                           retention_override=1e-3)
            summary = macro.summary()
        roots = tracer.finished_roots()
        assert roots[0].name == "macro.build"
        summary_span = roots[1]
        assert summary_span.name == "macro.summary"
        child_names = {c.name for c in summary_span.children}
        assert {"macro.timing", "macro.energy", "macro.static"} <= child_names
        snap = registry.snapshot()
        assert snap["counters"]["macro.builds"] == 1.0
        assert (snap["gauges"]["macro.access_time_s"]
                == pytest.approx(summary["access_time_s"]))
