"""Tests for the access-time model (paper Fig. 7a)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.units import ns, ps


class TestAccessBreakdown:
    def test_total_is_sum(self, dram_macro_128kb):
        timing = dram_macro_128kb.access_timing()
        assert timing.total == pytest.approx(
            sum(timing.breakdown().values()))

    def test_all_stages_positive(self, dram_macro_128kb):
        for stage, value in dram_macro_128kb.access_timing().breakdown().items():
            assert value > 0, stage

    def test_headline_band(self, dram_macro_128kb):
        """Paper: 1.3 ns for the 128 kb macro; the model must land in a
        +-40 % band around it."""
        assert 0.78 * ns < dram_macro_128kb.access_time() < 1.82 * ns

    def test_charge_sharing_fast(self, dram_macro_128kb):
        """The whole point of the short LBL: signal development is a
        small fraction of the access."""
        timing = dram_macro_128kb.access_timing()
        assert timing.bitline < 0.1 * timing.total


class TestDramVsSram:
    def test_similar_at_128kb(self, dram_macro_128kb, sram_macro_128kb):
        """Paper Fig. 7a: 'the impact of using this DRAM topology in term
        of access time is negligible'."""
        ratio = dram_macro_128kb.access_time() / sram_macro_128kb.access_time()
        assert 0.85 < ratio < 1.25

    def test_dram_not_slower_at_2mb(self, dram_macro_2mb, sram_macro_2mb):
        """At 2 Mb the denser DRAM has shorter global wires: the gap
        closes ('especially for medium size (2Mb) memories')."""
        assert dram_macro_2mb.access_time() <= sram_macro_2mb.access_time()

    def test_wordline_overdrive_penalty(self, dram_macro_128kb,
                                        sram_macro_128kb):
        """The DRAM word-line path pays the level shifter."""
        dram_wl = dram_macro_128kb.access_timing().wordline
        sram_wl = sram_macro_128kb.access_timing().wordline
        assert dram_wl > sram_wl


class TestSizeScaling:
    def test_monotone_in_size(self, dram_macro_128kb, dram_macro_2mb):
        assert dram_macro_2mb.access_time() > dram_macro_128kb.access_time()

    def test_growth_is_mild(self, dram_macro_128kb, dram_macro_2mb):
        """16x the bits costs well under 2x the access time — the
        hierarchical organization at work."""
        ratio = dram_macro_2mb.access_time() / dram_macro_128kb.access_time()
        assert ratio < 1.6


class TestMarginKnobs:
    def test_corner_factor_scales_total(self, dram_macro_128kb):
        timing = dram_macro_128kb.timing_model
        relaxed = dataclasses.replace(timing, corner_factor=1.0)
        assert timing.access_time() == pytest.approx(
            relaxed.access_time() * timing.corner_factor)

    def test_corner_factor_validated(self, dram_macro_128kb):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(dram_macro_128kb.timing_model,
                                corner_factor=0.5)

    def test_infeasible_signal_rejected(self, dram_macro_128kb):
        """A monolithic bitline starves the SA: the model refuses."""
        org = dram_macro_128kb.organization
        mono = dataclasses.replace(org, cells_per_lbl=org.n_words,
                                   block_columns=None)
        model = dataclasses.replace(dram_macro_128kb.timing_model,
                                    organization=mono)
        with pytest.raises(ConfigurationError):
            model.bitline_delay()


class TestWriteAfterRead:
    def test_hidden_restore_positive_for_dram(self, dram_macro_128kb):
        restore = dram_macro_128kb.timing_model.write_after_read_delay()
        assert restore > 10 * ps

    def test_zero_for_sram(self, sram_macro_128kb):
        assert sram_macro_128kb.timing_model.write_after_read_delay() == 0.0

    def test_restore_not_in_access_path(self, dram_macro_128kb):
        """Paper Sec. II: the restore runs while the GBL is sensed."""
        timing = dram_macro_128kb.access_timing()
        restore = dram_macro_128kb.timing_model.write_after_read_delay()
        assert restore > timing.global_bitline  # it genuinely overlaps
        assert "restore" not in timing.breakdown()
