"""Integration: cross-module consistency of the full system."""

import pytest

from repro import FastDramDesign
from repro.core import SramDramComparison
from repro.units import kb


class TestAnalyticVsCircuit:
    def test_charge_sharing_signal_agrees(self):
        """The analytic organization signal and the SPICE local-block
        simulation must agree on the LBL excursion."""
        from repro.array import simulate_localblock_read
        design = FastDramDesign(technology="scratchpad")
        macro = design.build(128 * kb, retention_override=1e-4)
        analytic = macro.organization.read_signal()
        wave = simulate_localblock_read(design.cell(), cells_per_lbl=16,
                                        stored_value=0)
        lbl = wave.result.voltage("lbl")
        simulated = 1.0 - float(lbl[len(lbl) // 4])
        assert simulated == pytest.approx(analytic, rel=0.3)

    def test_refresh_restores_at_slot_time(self):
        """The macro's refresh-slot estimate bounds the simulated restore."""
        design = FastDramDesign(technology="scratchpad")
        macro = design.build(128 * kb, retention_override=1e-4)
        from repro.array import simulate_localblock_read
        wave = simulate_localblock_read(design.cell(), stored_value=0,
                                        refresh_only=True)
        assert wave.restored_correctly
        assert macro.refresh_slot_time() < 5e-9


class TestSystemAssembly:
    def test_comparison_consistent_with_macros(self):
        comparison = SramDramComparison(sizes=(128 * kb,),
                                        retention_override=1e-3)
        row = comparison.access_time()[0]
        dram = comparison.dram_macro(128 * kb)
        assert row.dram == pytest.approx(dram.access_time())


class TestDeterminism:
    def test_macro_figures_deterministic(self):
        a = FastDramDesign().build(128 * kb, retention_override=1e-3)
        b = FastDramDesign().build(128 * kb, retention_override=1e-3)
        assert a.summary() == b.summary()

    def test_retention_mc_seeded(self, dram_macro_128kb):
        s1 = dram_macro_128kb.retention_statistics(count=200)
        s2 = dram_macro_128kb.retention_statistics(count=200)
        assert s1.worst_case == s2.worst_case
