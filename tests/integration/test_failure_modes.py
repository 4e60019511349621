"""Failure injection: the library must fail loudly and specifically.

Every guard in the model stack is exercised with the scenario it
protects against, checking both the exception type and that the message
carries the domain context a user needs.
"""

import numpy as np
import pytest

from repro.core import FastDramDesign
from repro.errors import (
    CalibrationError,
    ConfigurationError,
    ConvergenceError,
    NetlistError,
    ReproError,
    SimulationError,
)
from repro.units import kb


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (ConfigurationError, ConvergenceError,
                         NetlistError, SimulationError, CalibrationError):
            assert issubclass(exc_type, ReproError)


class TestArchitectureGuards:
    def test_monolithic_bitline_message_names_the_cure(self):
        """The infeasible-signal error must tell the designer what to
        change (the paper's own remedy: shorten the LBL)."""
        macro = FastDramDesign(cells_per_lbl=4096).build(
            128 * kb, retention_override=1e-3)
        with pytest.raises(ConfigurationError,
                           match="shorten the LBL|cell capacitor"):
            macro.access_time()

    def test_overdrive_on_logic_process_names_the_rule(self):
        from repro.cells import Dram1t1cCell
        from repro.tech import StorageCapacitor, TechnologyNode
        node = TechnologyNode.logic_90nm()
        with pytest.raises(ConfigurationError, match="reliability"):
            Dram1t1cCell(node=node,
                         capacitor=StorageCapacitor.cmos_gate(node),
                         wordline_voltage=1.7)

    def test_word_size_mismatch_reported(self):
        with pytest.raises(ConfigurationError, match="divide"):
            FastDramDesign().build(100_001, retention_override=1e-3)


class TestRefreshSaturation:
    def test_saturated_memory_reports_period_and_rows(self):
        from repro.refresh import (MonoblockRefresh, RefreshSimulator,
                                   uniform_random_trace)
        rng = np.random.default_rng(0)
        trace = uniform_random_trace(20_000, 128, 0.9, rng)
        policy = MonoblockRefresh(n_blocks=128, rows_per_block=32,
                                  refresh_period_cycles=5000)
        with pytest.raises(SimulationError, match="saturated"):
            RefreshSimulator(policy).run(trace)


class TestSpiceGuards:
    def test_floating_circuit_named(self):
        from repro.spice import Circuit, Resistor, simulate_transient
        c = Circuit("floating-island")
        c.add(Resistor("r1", "a", "b", 1e3))
        with pytest.raises(NetlistError, match="ground"):
            simulate_transient(c, 1e-9, 1e-12)

    def test_singular_matrix_mentions_floating_nodes(self):
        from repro.spice import Circuit, CurrentSource, dc, simulate_transient
        c = Circuit("current-into-nothing")
        c.add(CurrentSource("i1", "0", "a", dc(1e-3)))
        with pytest.raises(SimulationError, match="floating"):
            simulate_transient(c, 1e-9, 1e-12)

    def test_convergence_error_carries_time(self):
        """A genuinely unstable stamp must raise ConvergenceError with
        the failing time, not loop forever: force it with an absurd
        negative-resistance-like switch arrangement."""
        from repro.spice import (Circuit, Capacitor, Switch,
                                 VoltageSource, dc)
        from repro.spice.transient import _solve_point
        from repro.spice.mna import MnaSystem
        from repro.spice.stampplan import StampPlan
        c = Circuit("stubborn")
        c.add(VoltageSource("v1", "a", "0", dc(1.0)))
        c.add(Capacitor("c1", "b", "0", 1e-15))
        # Switch controlled by its own output: a combinational loop.
        c.add(Switch("s1", "a", "b", "b", "0", threshold=0.5,
                     transition=1e-6, r_on=1.0))
        system = MnaSystem(c)
        x = np.zeros(system.size)
        # The loop may or may not converge depending on damping; both
        # outcomes are acceptable, but it must never hang.
        try:
            _solve_point(StampPlan(system), x, 0.0, 1e-12)
        except ConvergenceError as exc:
            assert "stubborn" in str(exc)


class TestCalibrationGuards:
    def test_sram_anchor_rejects_wild_models(self):
        from repro.sramref import PUBLISHED_REFERENCE
        with pytest.raises(CalibrationError, match="deviates"):
            PUBLISHED_REFERENCE.check_energy(50e-12)

    def test_margin_analysis_rejects_static_cells(self, sram_macro_128kb,
                                                  dram_macro_128kb):
        from repro.array import ReadMarginAnalysis
        with pytest.raises(ConfigurationError, match="dynamic"):
            ReadMarginAnalysis(
                organization=sram_macro_128kb.organization,
                local_sa=sram_macro_128kb.local_sa,
                retention=dram_macro_128kb.cell_design.retention_model())
