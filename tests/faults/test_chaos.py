"""The chaos harness: seeded plans, once-only strikes, corrupted
artifacts, and the end-to-end scenario gates the CI matrix holds."""

import pathlib

import pytest

from repro.checkpoint import Checkpoint
from repro.errors import ConfigurationError, SimulationError
from repro.faults.chaos import (CHAOS_SCENARIOS, ChaosPlan, ChaosReport,
                                _ChaosCall, corrupt_checkpoint,
                                fill_event_sink, generate_chaos_plan,
                                run_chaos_scenario)
from repro.obs import EventLog

KEYS = [f"s{i:02d}" for i in range(12)]


class TestChaosPlan:
    def test_same_seed_same_plan(self, tmp_path):
        draw = lambda: generate_chaos_plan(  # noqa: E731
            KEYS, seed=42, scratch_dir=tmp_path, kills=2, hangs=1,
            slows=3, flakies=2)
        assert draw() == draw()

    def test_different_seed_different_victims(self, tmp_path):
        a = generate_chaos_plan(KEYS, seed=1, scratch_dir=tmp_path, kills=4)
        b = generate_chaos_plan(KEYS, seed=2, scratch_dir=tmp_path, kills=4)
        assert a.kill_keys != b.kill_keys

    def test_victim_sets_are_disjoint(self, tmp_path):
        plan = generate_chaos_plan(KEYS, seed=7, scratch_dir=tmp_path,
                                   kills=3, hangs=3, slows=3, flakies=3)
        victims = (plan.kill_keys + plan.hang_keys + plan.slow_keys
                   + plan.flaky_keys)
        assert len(victims) == 12
        assert len(set(victims)) == 12

    def test_too_many_victims_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            generate_chaos_plan(KEYS, seed=7, scratch_dir=tmp_path,
                                kills=10, hangs=10)

    def test_describe_names_the_victims(self, tmp_path):
        plan = generate_chaos_plan(KEYS, seed=7, scratch_dir=tmp_path,
                                   kills=1)
        assert plan.kill_keys[0] in plan.describe()
        quiet = generate_chaos_plan(KEYS, seed=7, scratch_dir=tmp_path)
        assert "no injections" in quiet.describe()


def plus_one(value):
    return value + 1


class TestChaosCall:
    def test_flaky_strikes_exactly_once(self, tmp_path):
        plan = ChaosPlan(seed=0, scratch_dir=str(tmp_path),
                         flaky_keys=("s00",))
        call = _ChaosCall(plan, "s00", plus_one)
        with pytest.raises(SimulationError):
            call(1)
        # The marker claimed by the first strike survives; the retry
        # runs the real evaluator.
        assert call(1) == 2
        assert call(1) == 2
        assert (tmp_path / "s00.flaky.struck").exists()

    def test_untargeted_key_passes_through(self, tmp_path):
        plan = ChaosPlan(seed=0, scratch_dir=str(tmp_path),
                         flaky_keys=("s00",))
        assert _ChaosCall(plan, "s01", plus_one)(5) == 6
        assert list(tmp_path.iterdir()) == []

    def test_slow_key_still_computes_correctly(self, tmp_path):
        plan = ChaosPlan(seed=0, scratch_dir=str(tmp_path),
                         slow_keys=("s02",), slow_seconds=0.01)
        call = _ChaosCall(plan, "s02", plus_one)
        assert call(3) == 4
        assert call(3) == 4  # slow is per-attempt, never marker-claimed
        assert list(tmp_path.iterdir()) == []


class TestCorruptCheckpoint:
    FIRST = {"a": 1.0}
    SECOND = {"a": 1.0, "b": 2.0}

    def _saved(self, tmp_path, *states):
        ckpt = Checkpoint(tmp_path / "c.json", fingerprint="fp")
        for done in states or (self.FIRST, self.SECOND):
            ckpt.save(dict(done))
        return ckpt

    @staticmethod
    def _sidecar(ckpt):
        return ckpt.path.with_name(ckpt.path.name + ".corrupt")

    @pytest.mark.parametrize("mode", ["garbage", "checksum"])
    def test_corruption_is_quarantined_on_load(self, tmp_path, mode):
        ckpt = self._saved(tmp_path)
        corrupt_checkpoint(ckpt.path, mode=mode)
        assert ckpt.load() is None  # fresh start, not a crash
        assert self._sidecar(ckpt).exists()
        assert not ckpt.path.exists()

    def test_torn_journal_resumes_from_the_previous_save(self, tmp_path):
        ckpt = self._saved(tmp_path)
        intact = ckpt.path.read_bytes()
        corrupt_checkpoint(ckpt.path, mode="torn")
        torn = ckpt.path.read_bytes()
        assert intact.startswith(torn) and not torn.endswith(b"\n")
        assert ckpt.load() == self.FIRST
        # The damaged bytes moved to the sidecar; the file ends on the
        # last good record, so the next save appends after it.
        assert ckpt.path.read_bytes() + self._sidecar(ckpt).read_bytes() \
            == torn
        ckpt.save(dict(self.SECOND))
        assert Checkpoint(ckpt.path, "fp").load() == self.SECOND

    def test_checksum_on_a_lone_record_cuts_it_off(self, tmp_path):
        ckpt = self._saved(tmp_path, self.FIRST)
        corrupt_checkpoint(ckpt.path, mode="checksum")
        assert ckpt.load() == {}
        assert self._sidecar(ckpt).exists()

    def test_snapshot_modes(self, tmp_path):
        path = tmp_path / "snap.json"
        for mode in ("torn", "checksum"):
            path.write_text(
                '{"schema": 2, "fingerprint": "fp", "checksum": '
                '"44136fa355b3678a1146ad16f7e8649e", "done": {}}')
            corrupt_checkpoint(path, mode=mode)
            assert Checkpoint(path, "fp").load() is None
            assert not path.exists()

    def test_a_mode_that_changes_nothing_is_refused(self, tmp_path):
        path = tmp_path / "schema1.json"
        path.write_text('{"schema": 1, "fingerprint": "fp", "done": {}}')
        with pytest.raises(ConfigurationError, match="changes no byte"):
            corrupt_checkpoint(path, mode="checksum")

    def test_unknown_mode_rejected(self, tmp_path):
        ckpt = self._saved(tmp_path)
        with pytest.raises(ConfigurationError):
            corrupt_checkpoint(ckpt.path, mode="gamma-ray")


class TestDiskFullSink:
    def test_sink_failure_degrades_to_memory(self, tmp_path):
        log = EventLog(jsonl_path=tmp_path / "events.jsonl")
        log.emit("before", n=1)
        fill_event_sink(log)
        log.emit("during", n=2)
        log.emit("after", n=3)
        try:
            assert log.sink_errors == 1  # one strike closes the sink
            assert [e.kind for e in log.events()] == [
                "before", "during", "after"]
        finally:
            log.close()

    def test_degraded_log_keeps_accepting_events(self, tmp_path):
        log = EventLog(jsonl_path=tmp_path / "events.jsonl")
        fill_event_sink(log)
        for i in range(50):
            log.emit("tick", i=i)
        try:
            assert len(log) == 50
            assert log.sink_errors == 1
        finally:
            log.close()


class TestScenarios:
    """End-to-end chaos gates — the same checks CI's matrix holds.

    Each scenario asserts the supervision contract: zero lost keys and
    bit-identical survivors (``report.ok``), with the per-scenario
    recovery visible in the report."""

    def _run(self, tmp_path, scenario, **kwargs):
        report = run_chaos_scenario(scenario, count=6, seed=11, jobs=2,
                                    workdir=tmp_path, **kwargs)
        assert report.ok, report.describe()
        assert report.lost == ()
        assert report.mismatched == ()
        return report

    def test_flaky_retries_to_full_completion(self, tmp_path):
        report = self._run(tmp_path, "flaky")
        assert report.completed == 6
        assert report.quarantined == ()

    def test_slow_completes_within_deadline(self, tmp_path):
        report = self._run(tmp_path, "slow")
        assert report.completed == 6

    def test_kill_recovers_all_samples(self, tmp_path):
        report = self._run(tmp_path, "kill")
        assert report.completed == 6
        assert report.quarantined == ()

    def test_hang_is_detected_and_retried(self, tmp_path):
        report = self._run(tmp_path, "hang")
        assert report.completed == 6

    def test_torn_checkpoint_resumes_bit_identical(self, tmp_path):
        report = self._run(tmp_path, "torn-checkpoint")
        assert report.completed == 6
        assert any("quarantined to" in note for note in report.notes)
        sidecar = (pathlib.Path(tmp_path) / "torn-checkpoint"
                   / "sweep.ckpt.json.corrupt")
        assert sidecar.exists()

    def test_disk_full_degrades_sink_only(self, tmp_path):
        report = self._run(tmp_path, "disk-full")
        assert report.completed == 6
        assert any("sink degraded after 1" in note
                   for note in report.notes)

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_chaos_scenario("meteor", workdir=tmp_path)
        with pytest.raises(ConfigurationError):
            run_chaos_scenario("kill", count=1, workdir=tmp_path)


class TestChaosReport:
    def test_ok_requires_nothing_lost_or_drifted(self):
        good = ChaosReport(scenario="kill", requested=4, completed=4,
                           failures=(), quarantined=(), lost=(),
                           mismatched=())
        assert good.ok and "ok" in good.describe()
        bad = ChaosReport(scenario="kill", requested=4, completed=3,
                          failures=(), quarantined=(), lost=("s01",),
                          mismatched=())
        assert not bad.ok
        assert "FAILED" in bad.describe()
        assert "LOST: s01" in bad.describe()

    def test_quarantine_is_enumerated_not_hidden(self):
        report = ChaosReport(scenario="hang", requested=4, completed=3,
                             failures=(), quarantined=("s02",), lost=(),
                             mismatched=())
        assert report.ok  # quarantined-but-accounted is a pass
        assert "quarantined: s02" in report.describe()

    def test_scenario_table_matches_cli(self):
        assert CHAOS_SCENARIOS == ("kill", "hang", "slow", "flaky",
                                   "torn-checkpoint", "disk-full")
