"""Tests for the dedicated-DRAM-peripherals option (paper future work)."""

import dataclasses


class TestDedicatedPeriphery:
    def test_shrinks_dram_macro(self, dram_macro_128kb):
        shared = dram_macro_128kb.floorplan
        dedicated = dataclasses.replace(shared, dedicated_periphery=True)
        assert dedicated.total_area() < shared.total_area()

    def test_cells_untouched(self, dram_macro_128kb):
        shared = dram_macro_128kb.floorplan.breakdown()
        dedicated = dataclasses.replace(
            dram_macro_128kb.floorplan, dedicated_periphery=True).breakdown()
        assert dedicated.cells == shared.cells
        assert dedicated.local_periphery < shared.local_periphery

    def test_noop_for_sram(self, sram_macro_128kb):
        """Dedicated *DRAM* peripherals do not apply to the SRAM."""
        shared = sram_macro_128kb.floorplan
        dedicated = dataclasses.replace(shared, dedicated_periphery=True)
        assert dedicated.total_area() == shared.total_area()

    def test_further_gain_claim(self, dram_macro_2mb, sram_macro_2mb):
        """Paper Sec. IV: 'Further gain should be possible by designing
        peripherals dedicated to a DRAM matrix' — the option must push
        the area factor beyond the shared-periphery value."""
        shared_gain = sram_macro_2mb.area() / dram_macro_2mb.area()
        dedicated = dataclasses.replace(dram_macro_2mb.floorplan,
                                        dedicated_periphery=True)
        dedicated_gain = sram_macro_2mb.area() / dedicated.total_area()
        assert dedicated_gain > shared_gain
        assert dedicated_gain / shared_gain > 1.05
