"""The solver recovery ladder, driven to each rung deterministically.

The stiff circuit is a diode fed from a stiff source: from a cold
start, plain Newton crawls up the exponential at roughly one thermal
voltage per iteration, so a sharp diode (small ``v_t``) plus a small
``max_newton`` budget makes the plain solve fail reproducibly while a
specific ladder rung still converges.  The constants below were chosen
by measuring the iteration demand of every rung:

* ``v_t=0.005`` — plain cold-start Newton needs ~66 iterations;
* ratio-2 gmin ladder — the worst gmin stage needs ~14 iterations;
* ``max_newton=25`` — sits cleanly between the two.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError
from repro.spice import (Capacitor, Circuit, Diode, Resistor, VoltageSource,
                         dc, simulate_transient, solve_dc)
from repro.spice.recovery import (RUNGS, RecoveryConfig, RecoveryReport)

#: Dense gmin ladder (ratio ~2 per stage) so every stage's warm start
#: lands within the tight Newton budget.
GMIN_LADDER = tuple(10.0 ** (-0.3 * k) for k in range(4, 41))


def stiff_diode_circuit(v_t: float = 0.005, supply: float = 5.0,
                        resistance: float = 1e6) -> Circuit:
    circuit = Circuit("stiff-diode")
    circuit.add(VoltageSource("v1", "in", "0", dc(supply)))
    circuit.add(Resistor("r1", "in", "d", resistance))
    circuit.add(Diode("d1", "d", "0", v_t=v_t, v_clip=0.5))
    circuit.add(Capacitor("cl", "in", "0", 1e-12))
    return circuit


def run_stiff(recovery: RecoveryConfig):
    """One short transient of the stiff circuit under ``recovery``."""
    return simulate_transient(stiff_diode_circuit(), t_stop=1e-9, dt=1e-10,
                              initial_voltages={"in": 5.0},
                              recovery=recovery)


class TestGminStepping:
    """The ISSUE's flagship case: plain Newton fails, gmin converges."""

    def test_plain_newton_fails_without_ladder(self):
        bare = RecoveryConfig(max_newton=25, enable_damping=False,
                              enable_substep=False, enable_gmin=False,
                              enable_source=False)
        with pytest.raises(ConvergenceError) as excinfo:
            run_stiff(bare)
        report = excinfo.value.recovery
        assert isinstance(report, RecoveryReport)
        assert not report.succeeded
        assert report.rungs_tried() == ("newton",)
        assert report.attempts[0].detail == "plain"

    def test_gmin_stepping_converges_where_newton_cannot(self):
        gmin_only = RecoveryConfig(max_newton=25, enable_damping=False,
                                   enable_substep=False,
                                   enable_source=False,
                                   gmin_ladder=GMIN_LADDER)
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            result = run_stiff(gmin_only)
        # ~0.1 V across the diode: i = 5 V / 1 Mohm = 5 uA into a sharp
        # exponential — the physically correct operating point.
        assert result.final_voltage("d") == pytest.approx(0.100, abs=5e-3)
        counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.gmin"] == 1
        assert counters["spice.recovery.escalations"] == 1
        assert "spice.recovery.exhausted" not in counters

    def test_full_ladder_escalates_to_gmin(self):
        """With every rung enabled the ladder reaches gmin: damping and
        substep cannot beat the exponential crawl, gmin can."""
        full = RecoveryConfig(max_newton=25, gmin_ladder=GMIN_LADDER)
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            result = run_stiff(full)
        assert result.final_voltage("d") == pytest.approx(0.100, abs=5e-3)
        counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.gmin"] == 1
        assert "spice.recovery.damping" not in counters
        assert "spice.recovery.substep" not in counters


class TestGoldenRecoveryReport:
    """The full escalation transcript is deterministic."""

    def test_report_matches_golden_sequence(self):
        full = RecoveryConfig(max_newton=25, gmin_ladder=GMIN_LADDER)
        with pytest.raises(ConvergenceError) as excinfo:
            # Disable gmin and source so the ladder is exhausted and the
            # report rides out on the exception.
            crippled = RecoveryConfig(
                max_newton=25, enable_gmin=False, enable_source=False,
                damping_factors=full.damping_factors,
                max_halvings=full.max_halvings)
            run_stiff(crippled)
        report = excinfo.value.recovery
        golden = [
            ("newton", "plain", False),
            ("damping", "damping=0.25", False),
            ("damping", "damping=0.0625", False),
            ("substep", "substeps=2", False),
            ("substep", "substeps=4", False),
            ("substep", "substeps=8", False),
            ("substep", "substeps=16", False),
            ("substep", "substeps=32", False),
            ("substep", "substeps=64", False),
            ("substep", "substeps=128", False),
        ]
        assert [(a.rung, a.detail, a.converged)
                for a in report.attempts] == golden
        assert report.successful_rung is None
        assert "failed" in report.describe()

    def test_successful_walk_records_every_gmin_stage(self):
        gmin_only = RecoveryConfig(max_newton=25, enable_damping=False,
                                   enable_substep=False,
                                   enable_source=False,
                                   gmin_ladder=GMIN_LADDER)
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            run_stiff(gmin_only)
        counters = registry.snapshot()["counters"]
        # 1 failed plain attempt + one attempt per gmin ladder stage.
        assert counters["spice.recovery.attempts"] == 1 + len(GMIN_LADDER)


class TestTransientRungs:
    """Gentler failures recover on the earlier rungs."""

    def stiff_rc_diode(self, supply: float) -> Circuit:
        circuit = Circuit("rc-diode")
        circuit.add(VoltageSource("v1", "in", "0", dc(supply)))
        circuit.add(Resistor("r1", "in", "d", 100.0))
        circuit.add(Diode("d1", "d", "0"))
        circuit.add(Capacitor("cd", "d", "0", 1e-12))
        return circuit

    def run(self, supply: float, max_newton: int) -> dict:
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            simulate_transient(self.stiff_rc_diode(supply), t_stop=5e-10,
                               dt=1e-10,
                               recovery=RecoveryConfig(max_newton=max_newton))
        return registry.snapshot()["counters"]

    def test_substep_rung_recovers_moderate_stiffness(self):
        counters = self.run(supply=3.0, max_newton=10)
        assert counters.get("spice.recovery.substep", 0) >= 1
        assert "spice.recovery.exhausted" not in counters

    def test_source_rung_recovers_hard_stiffness(self):
        counters = self.run(supply=5.0, max_newton=8)
        assert counters.get("spice.recovery.source", 0) >= 1
        assert "spice.recovery.exhausted" not in counters


class TestDcRecovery:
    """The DC solver walks the same ladder (minus substep)."""

    def dc_diode(self) -> Circuit:
        circuit = Circuit("dc-diode")
        circuit.add(VoltageSource("v1", "in", "0", dc(5.0)))
        circuit.add(Resistor("r1", "in", "d", 100.0))
        circuit.add(Diode("d1", "d", "0"))
        return circuit

    def test_source_stepping_rescues_tight_budget(self):
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            solution = solve_dc(self.dc_diode(),
                                recovery=RecoveryConfig(max_newton=10))
        # 5 V across 100 ohm into a diode: ~0.6-0.9 V forward drop.
        assert 0.3 < solution["d"] < 1.0
        counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.source"] == 1

    def test_healthy_solve_counts_as_newton_not_recovery(self):
        registry = obs.MetricsRegistry()
        with obs.instrumented(registry=registry, tracer=obs.Tracer()):
            solve_dc(self.dc_diode())
        counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.newton"] == 1
        assert "spice.recovery.escalations" not in counters

    def test_exhausted_dc_solve_carries_report(self):
        bare = RecoveryConfig(max_newton=2, enable_damping=False,
                              enable_source=False)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(self.dc_diode(), recovery=bare)
        report = excinfo.value.recovery
        assert report is not None
        assert report.rungs_tried() == ("newton",)


class TestRecoveryConfigValidation:
    def test_rung_order_is_pinned(self):
        assert RUNGS == ("newton", "damping", "substep", "gmin", "source")

    def test_rejects_bad_max_newton(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(max_newton=0)

    def test_rejects_source_ladder_not_ending_at_full(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(source_ladder=(0.5, 0.9))

    def test_rejects_nonpositive_gmin(self):
        with pytest.raises(ConfigurationError):
            RecoveryConfig(gmin_ladder=(1e-3, 0.0))

    def test_report_rejects_unknown_rung(self):
        report = RecoveryReport(circuit="x")
        with pytest.raises(ConfigurationError):
            report.record("warp", "factor=9", converged=False)
