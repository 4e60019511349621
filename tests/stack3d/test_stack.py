"""Tests for die stacks and the paper Fig. 2 hybrid cache system."""

import pytest

from repro.errors import ConfigurationError
from repro.stack3d import Die, DieStack, hybrid_cache_stack
from repro.units import Mb, kb, mm2, ns


@pytest.fixture(scope="module")
def stack():
    return hybrid_cache_stack()


class TestHybridStack:
    def test_two_dies(self, stack):
        assert [d.kind for d in stack.dies] == ["logic", "memory"]

    def test_memory_die_carries_both_levels(self, stack):
        memory = stack.dies[1]
        assert len(memory.macros) == 2
        l1, l2 = memory.macros
        assert l1.organization.total_bits == 128 * kb
        assert l2.organization.total_bits == 2 * Mb

    def test_l2_denser_than_l1(self, stack):
        """The L2 uses coarse granularity: more bits per mm^2."""
        l1, l2 = stack.dies[1].macros
        density_l1 = l1.organization.total_bits / l1.area()
        density_l2 = l2.organization.total_bits / l2.area()
        assert density_l2 > density_l1

    def test_l2_slower_than_l1(self, stack):
        l1, l2 = stack.dies[1].macros
        assert l2.access_time() > l1.access_time()

    def test_total_capacity(self, stack):
        assert stack.memory_capacity() == 128 * kb + 2 * Mb

    def test_interface_is_tsv_scale(self, stack):
        link = stack.interface()
        assert link.max_links > 500
        assert link.energy_per_bit < 1e-13


class TestE11Stack:
    """The E11 hybrid-stack figures, at EXPERIMENTS.md's precision."""

    def test_signal_tsvs_on_25mm2_die(self, stack):
        assert f"{stack.footprint / mm2:.0f} mm2" == "25 mm2"
        assert stack.interface().max_links == 3906

    def test_level_access_times(self, stack):
        l1, l2 = stack.dies[1].macros
        assert f"{l1.access_time() / ns:.2f} ns" == "1.06 ns"
        assert f"{l2.access_time() / ns:.2f} ns" == "1.23 ns"


class TestValidation:
    def test_macros_must_fit_on_die(self, dram_macro_128kb):
        with pytest.raises(ConfigurationError):
            Die(name="tiny", kind="memory", area=1e-9,
                macros=(dram_macro_128kb,))

    def test_unknown_die_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Die(name="x", kind="fpga", area=1e-6)

    def test_stack_needs_two_dies(self):
        with pytest.raises(ConfigurationError):
            DieStack(dies=(Die(name="solo", kind="logic", area=1e-6),))

    def test_tsv_only_between_adjacent(self, stack):
        with pytest.raises(ConfigurationError):
            stack.interface(0, 0)

    def test_footprint_is_largest_die(self, stack):
        assert stack.footprint == max(d.area for d in stack.dies)
