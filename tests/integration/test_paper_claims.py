"""Integration: every headline claim of the paper, asserted end-to-end.

One test per sentence of the abstract/conclusion, each exercising the
full public API the way a reader checking the paper would.
"""

import numpy as np
import pytest

from repro import FastDramDesign
from repro.refresh import (
    LocalizedRefresh,
    MonoblockRefresh,
    RefreshSimulator,
    uniform_random_trace,
)
from repro.units import kb, ns, pJ


class TestAbstract:
    """'The 128 kb memory architecture proposed here achieves an access
    time of 1.3 ns for a dynamic energy of less than 0.2 pJ per bit.'"""

    def test_access_time_near_1_3ns(self, dram_macro_128kb):
        assert dram_macro_128kb.access_time() == pytest.approx(
            1.3 * ns, rel=0.4)

    def test_energy_below_02_pj_per_bit(self, dram_macro_128kb):
        assert dram_macro_128kb.energy_per_bit(write=False) < 0.2 * pJ
        assert dram_macro_128kb.energy_per_bit(write=True) < 0.2 * pJ

    def test_factor_10_static_power(self, dram_macro_2mb, sram_macro_2mb):
        """'gaining a factor of 10 in static power consumption'"""
        gain = (sram_macro_2mb.static_power().power
                / dram_macro_2mb.static_power().power)
        assert gain == pytest.approx(10.0, rel=0.8)
        assert gain > 5.0

    def test_factor_2plus_area(self, dram_macro_2mb, sram_macro_2mb):
        """'and a factor of 2.x in area'"""
        gain = sram_macro_2mb.area() / dram_macro_2mb.area()
        assert 2.0 < gain < 3.5


class TestConclusion:
    def test_matches_sram_speed_and_active_power(self, dram_macro_128kb,
                                                 sram_macro_128kb):
        """'The active power and speed figures are similar for both DRAM
        and SRAM architectures.'"""
        speed = dram_macro_128kb.access_time() / sram_macro_128kb.access_time()
        read = (dram_macro_128kb.read_energy().total
                / sram_macro_128kb.read_energy().total)
        assert 0.8 < speed < 1.25
        assert 0.7 < read < 1.4

    def test_outperforms_on_density_and_passive_power(self, dram_macro_2mb,
                                                      sram_macro_2mb):
        """'outperforms typical SRAM in density and passive power'"""
        assert dram_macro_2mb.area() < sram_macro_2mb.area()
        assert (dram_macro_2mb.static_power().power
                < sram_macro_2mb.static_power().power)


class TestRefreshClaim:
    def test_localized_refresh_negligible_penalty(self):
        """'A localized refresh mechanism … reduces its impact on access
        delay' — at the DRAM-technology retention the busy fraction is
        well below a percent, vs the monoblock scheme's percents."""
        rng = np.random.default_rng(1)
        trace = uniform_random_trace(100_000, 128, 0.5, rng)
        retention_cycles = int(500e-6 * 500e6)
        local = RefreshSimulator(LocalizedRefresh(
            n_blocks=128, rows_per_block=32,
            refresh_period_cycles=retention_cycles)).run(trace)
        mono = RefreshSimulator(MonoblockRefresh(
            n_blocks=128, rows_per_block=32,
            refresh_period_cycles=retention_cycles)).run(trace)
        assert local.busy_fraction < 0.001
        assert mono.busy_fraction > 0.01

    def test_refresh_energy_excludes_global_circuits(self, dram_macro_128kb):
        """'neither the global sensing circuit nor the global write
        circuits are used during the operation'"""
        model = dram_macro_128kb.energy_model
        refresh = model.refresh_row_energy()
        assert refresh == pytest.approx(
            model.cell_energy() + model.localblock_energy())
        # No decode, global or io terms:
        assert refresh < model.access(write=False).total - model.decode_energy()


class TestMethodologyConsistency:
    def test_scratchpad_and_dram_tech_agree(self):
        """The paper's central methodological bet: the architecture's
        figures survive the technology translation."""
        scratchpad = FastDramDesign(technology="scratchpad").build(
            128 * kb, retention_override=1e-4)
        dram = FastDramDesign(technology="dram").build(
            128 * kb, retention_override=1e-3)
        assert dram.access_time() == pytest.approx(
            scratchpad.access_time(), rel=0.25)
        assert dram.read_energy().total == pytest.approx(
            scratchpad.read_energy().total, rel=0.35)

    def test_density_ranking(self, dram_macro_128kb, sram_macro_128kb):
        """Scratchpad cell denser than SRAM, trench densest."""
        scratchpad = FastDramDesign(technology="scratchpad").build(
            128 * kb, retention_override=1e-4)
        assert (dram_macro_128kb.area() < scratchpad.area()
                < sram_macro_128kb.area())
