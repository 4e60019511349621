"""Tests for refresh scheduling policies."""

import pytest

from repro.errors import ConfigurationError
from repro.refresh import LocalizedRefresh, MonoblockRefresh, RefreshOperation


@pytest.fixture()
def localized():
    return LocalizedRefresh(n_blocks=128, rows_per_block=32,
                            refresh_period_cycles=100_000)


@pytest.fixture()
def monoblock():
    return MonoblockRefresh(n_blocks=128, rows_per_block=32,
                            refresh_period_cycles=100_000)


class TestSchedule:
    def test_total_rows(self, localized):
        assert localized.total_rows == 4096

    def test_interval_spreads_refreshes(self, localized):
        assert localized.interval_cycles == pytest.approx(100_000 / 4096)

    def test_all_rows_covered_once_per_period(self, localized):
        rows = set()
        for i in range(localized.total_rows):
            op = localized.refresh_starting_at(i)
            rows.add((op.start_cycle, op.block))
        blocks = {b for _s, b in rows}
        assert blocks == set(range(128))

    def test_schedule_wraps(self, localized):
        first = localized.refresh_starting_at(0)
        wrapped = localized.refresh_starting_at(localized.total_rows)
        assert wrapped.block == first.block
        assert wrapped.start_cycle > first.start_cycle

    def test_utilisation_band(self, localized):
        assert 0 < localized.utilisation() < 0.1

    def test_schedule_rounds_half_to_even_like_round(self):
        # interval 2.5: every odd slot lands on a .5 tie.
        policy = MonoblockRefresh(n_blocks=2, rows_per_block=2,
                                  refresh_period_cycles=10)
        start, duration, block = policy.schedule(3, 40)
        assert start.tolist() == [round(i * 2.5) for i in range(3, 43)]
        assert duration.tolist() == [2] * 40
        assert block.tolist() == [-1] * 40

    def test_schedule_rows_match_refresh_starting_at(self, localized):
        start, duration, block = localized.schedule(4090, 12)
        for k, i in enumerate(range(4090, 4102)):
            op = localized.refresh_starting_at(i)
            assert (start[k], duration[k], block[k]) == (
                op.start_cycle, op.duration, op.block)
            assert op.start_cycle == round(i * localized.interval_cycles)


class TestScopes:
    def test_monoblock_blocks_everything(self, monoblock):
        op = monoblock.refresh_starting_at(0)
        assert op.block is None
        assert op.blocks_access(op.start_cycle, 0)
        assert op.blocks_access(op.start_cycle, 127)

    def test_localized_blocks_one_block(self, localized):
        op = localized.refresh_starting_at(0)
        assert op.block == 0
        assert op.blocks_access(op.start_cycle, 0)
        assert not op.blocks_access(op.start_cycle, 1)

    def test_localized_walks_block_major(self, localized):
        first_block_ops = [localized.refresh_starting_at(i).block
                           for i in range(32)]
        assert set(first_block_ops) == {0}
        assert localized.refresh_starting_at(32).block == 1

    def test_operation_time_window(self):
        op = RefreshOperation(start_cycle=10, duration=2, block=3)
        assert not op.blocks_access(9, 3)
        assert op.blocks_access(10, 3)
        assert op.blocks_access(11, 3)
        assert not op.blocks_access(12, 3)


class TestValidation:
    def test_rejects_zero_period(self):
        with pytest.raises(ConfigurationError):
            MonoblockRefresh(n_blocks=4, rows_per_block=4,
                             refresh_period_cycles=0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            MonoblockRefresh(n_blocks=4, rows_per_block=4,
                             refresh_period_cycles=100,
                             refresh_duration_cycles=0)

    def test_utilisation_saturates_at_one(self):
        overloaded = MonoblockRefresh(n_blocks=4, rows_per_block=4,
                                      refresh_period_cycles=8,
                                      refresh_duration_cycles=2)
        assert overloaded.utilisation() == 1.0
