"""Tests for the 1T1C DRAM cell — both methodology variants."""

import dataclasses

import pytest

from repro.cells import Dram1t1cCell, StorageKind
from repro.errors import ConfigurationError
from repro.tech import CapacitorKind
from repro.units import fF, um2, V


class TestScratchpad:
    def test_paper_parameters(self, scratchpad_cell):
        assert scratchpad_cell.capacitor.capacitance == pytest.approx(11 * fF)
        assert scratchpad_cell.capacitor.kind is CapacitorKind.CMOS_GATE
        assert scratchpad_cell.wordline_voltage == pytest.approx(1.2)

    def test_degraded_stored_one(self, scratchpad_cell):
        """No overdrive: the stored '1' loses an HVT threshold."""
        assert scratchpad_cell.stored_high < 0.9

    def test_area_below_sram(self, scratchpad_cell, logic_node):
        assert scratchpad_cell.area() < logic_node.sram6t_cell_area


class TestDramTechnology:
    def test_paper_parameters(self, trench_cell):
        assert trench_cell.capacitor.capacitance == pytest.approx(30 * fF)
        assert trench_cell.capacitor.kind is CapacitorKind.DEEP_TRENCH
        assert trench_cell.wordline_voltage == pytest.approx(1.7)
        assert trench_cell.wordline_low_voltage == pytest.approx(-0.3)

    def test_full_stored_one_with_overdrive(self, trench_cell):
        assert trench_cell.stored_high == pytest.approx(
            trench_cell.bitline_precharge)

    def test_cell_area_03um2(self, trench_cell):
        assert trench_cell.area() == pytest.approx(0.3 * um2)


class TestReliabilityRules:
    def test_logic_process_rejects_overdrive(self, logic_node):
        """Paper Sec. III: overdrive is 'not possible in a logic process,
        due to the reliability electrical rules restrictions'."""
        from repro.tech import StorageCapacitor
        with pytest.raises(ConfigurationError):
            Dram1t1cCell(
                node=logic_node,
                capacitor=StorageCapacitor.cmos_gate(logic_node),
                wordline_voltage=1.7 * V,
            )

    def test_logic_process_rejects_negative_wl(self, logic_node):
        from repro.tech import StorageCapacitor
        with pytest.raises(ConfigurationError):
            Dram1t1cCell(
                node=logic_node,
                capacitor=StorageCapacitor.cmos_gate(logic_node),
                wordline_low_voltage=-0.3 * V,
            )

    def test_dram_process_allows_overdrive(self, trench_cell):
        assert trench_cell.wordline_voltage > trench_cell.node.vdd

    def test_beyond_vdd_max_rejected(self, dram_node):
        from repro.tech import StorageCapacitor
        with pytest.raises(ConfigurationError):
            Dram1t1cCell(
                node=dram_node,
                capacitor=StorageCapacitor.deep_trench(dram_node),
                wordline_voltage=2.5 * V,
            )

    def test_positive_wordline_low_rejected(self, dram_node):
        from repro.tech import StorageCapacitor
        with pytest.raises(ConfigurationError):
            Dram1t1cCell(
                node=dram_node,
                capacitor=StorageCapacitor.deep_trench(dram_node),
                wordline_low_voltage=0.2 * V,
            )


class TestReadBehaviour:
    def test_voltage_step_capacitive_divider(self, trench_cell):
        c_cell = trench_cell.capacitor.capacitance
        c_bl = 10 * fF
        step = trench_cell.read_voltage_step(c_bl)
        expected = trench_cell.bitline_precharge * c_cell / (c_cell + c_bl)
        assert step == pytest.approx(expected)

    def test_step_shrinks_with_bitline_cap(self, trench_cell):
        """The paper's core limitation: the voltage drop is set by the
        cell-to-bitline capacitance ratio."""
        short = trench_cell.read_voltage_step(5 * fF)
        long = trench_cell.read_voltage_step(500 * fF)
        assert long < 0.2 * short

    def test_rejects_nonpositive_bitline(self, trench_cell):
        with pytest.raises(ConfigurationError):
            trench_cell.read_voltage_step(0.0)

    def test_transfer_time_constant_subnanosecond(self, trench_cell):
        assert 0 < trench_cell.transfer_time_constant() < 1e-9

    def test_overdrive_speeds_transfer(self, trench_cell):
        slow = dataclasses.replace(trench_cell, wordline_voltage=1.2 * V)
        assert (trench_cell.transfer_time_constant()
                < slow.transfer_time_constant())


class TestSpec:
    def test_dynamic_kind(self, trench_cell):
        spec = trench_cell.spec()
        assert spec.kind is StorageKind.DYNAMIC
        assert spec.is_dynamic
        assert spec.retention is not None

    def test_spec_carries_wordline_voltage(self, trench_cell):
        assert trench_cell.spec().wordline_voltage == pytest.approx(1.7)

    def test_spec_charge_sharing_cap(self, trench_cell):
        assert trench_cell.spec().charge_sharing_cap == pytest.approx(30 * fF)
