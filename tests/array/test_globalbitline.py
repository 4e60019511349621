"""The hierarchical-bitline workload: topology, sensing, scaling."""

import pytest

from repro.array import (build_globalbitline_read_circuit,
                         simulate_globalbitline_read)
from repro.cells.dram1t1c import Dram1t1cCell
from repro.errors import SimulationError
from repro.spice.elements import Switch
from repro.spice.mna import MnaSystem
from repro.spice.mosfet import MosfetElement


def cell():
    return Dram1t1cCell.scratchpad()


class TestBuildValidation:
    def test_bad_stored_value_rejected(self):
        with pytest.raises(SimulationError):
            build_globalbitline_read_circuit(cell(), stored_value=2)

    def test_bad_idle_value_rejected(self):
        with pytest.raises(SimulationError):
            build_globalbitline_read_circuit(cell(), idle_value=-1)

    def test_too_few_blocks_rejected(self):
        with pytest.raises(SimulationError):
            build_globalbitline_read_circuit(cell(), blocks=1)

    def test_too_few_cells_rejected(self):
        with pytest.raises(SimulationError):
            build_globalbitline_read_circuit(cell(), cells_per_lbl=1)

    def test_selected_block_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            build_globalbitline_read_circuit(cell(), blocks=4,
                                             selected_block=4)


class TestTopology:
    def test_unknown_count_scales_with_both_axes(self):
        """size = blocks * (cells + 1) + fixed global overhead."""
        sizes = {}
        for blocks, cells in ((2, 2), (4, 2), (2, 4)):
            circuit = build_globalbitline_read_circuit(
                cell(), blocks=blocks, cells_per_lbl=cells)
            sizes[(blocks, cells)] = MnaSystem(circuit).size
        overhead = sizes[(2, 2)] - 2 * 3
        assert sizes[(4, 2)] == 4 * 3 + overhead
        assert sizes[(2, 4)] == 2 * 5 + overhead

    def test_one_select_switch_per_block_single_one_armed(self):
        circuit = build_globalbitline_read_circuit(cell(), blocks=4,
                                                   cells_per_lbl=2,
                                                   selected_block=2)
        selects = [el for el in circuit.elements
                   if isinstance(el, Switch)
                   and el.name.startswith("sw_sel")]
        assert len(selects) == 4
        armed = [s for s in selects if s.ctrl_p == "sel_en"]
        assert [s.name for s in armed] == ["sw_sel2"]

    def test_one_access_device_per_cell_single_one_on_wl(self):
        circuit = build_globalbitline_read_circuit(cell(), blocks=3,
                                                   cells_per_lbl=4)
        access = [el for el in circuit.elements
                  if isinstance(el, MosfetElement)
                  and el.name.startswith("m_acc")]
        assert len(access) == 3 * 4
        on_wl = [m for m in access if m.gate == "wl"]
        assert [m.name for m in on_wl] == ["m_acc0_0"]


class TestRead:
    def test_read_of_one_regenerates_high(self):
        wf = simulate_globalbitline_read(cell(), blocks=4, cells_per_lbl=4,
                                         stored_value=1)
        assert wf.charge_sharing_signal > 0.05
        assert wf.gbl_final > 0.8

    def test_read_of_zero_regenerates_low(self):
        wf = simulate_globalbitline_read(cell(), blocks=4, cells_per_lbl=4,
                                         stored_value=0)
        assert wf.charge_sharing_signal > 0.05
        assert wf.gbl_final < 0.2

    def test_idle_blocks_stay_near_precharge(self):
        wf = simulate_globalbitline_read(cell(), blocks=4, cells_per_lbl=4)
        assert wf.idle_lbl_drift < 0.05

    def test_nondefault_selected_block_reads_too(self):
        wf = simulate_globalbitline_read(cell(), blocks=4, cells_per_lbl=4,
                                         stored_value=1, selected_block=3)
        assert wf.gbl_final > 0.8
