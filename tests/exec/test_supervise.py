"""The supervision layer's contract: bounded samples, deterministic
retries, enumerated quarantine — and bit-identity with the unsupervised
executor whenever the faults stop.

Fault injection here uses marker files (the once-only idiom from
:mod:`repro.faults.chaos`): a worker that dies takes its memory with
it, so "fail exactly once" must be recorded somewhere that survives the
death.  Worker callables live at module level so they pickle.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.checkpoint import Checkpoint, RunBudget
from repro.errors import ConfigurationError, DeadlineExceeded, SimulationError
from repro.exec import (SupervisionPolicy, run_parallel_sweep,
                        sample_deadline, tick, trap_termination)

# -- picklable work functions ------------------------------------------------


def square(value):
    return value * value


def _strike_once(marker_dir, key, kind):
    marker = pathlib.Path(marker_dir) / f"{key}.{kind}"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return False
    return True


def fail_once(value, key, marker_dir):
    if _strike_once(marker_dir, key, "fail"):
        raise SimulationError("injected transient failure")
    return value * value


def always_fail(value):
    raise SimulationError("injected permanent failure")


def crash_once(value, key, marker_dir):
    if _strike_once(marker_dir, key, "crash"):
        os._exit(7)
    return value * value


def hang_once(value, key, marker_dir):
    if _strike_once(marker_dir, key, "hang"):
        time.sleep(60.0)
    return value * value


def always_hang(value):
    time.sleep(60.0)


def slow_cooperative(value, seconds):
    """Busy work that honours the cooperative deadline via tick()."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        tick()
        time.sleep(0.01)
    return value * value


def emitting(value):
    obs.event("test.tick", key=value)
    return value + 1


def emitting_fail_once(value, key, marker_dir):
    obs.event("test.tick", key=value)
    return fail_once(value, key, marker_dir)


def items_of(fn, count=8, extra=()):
    return [(f"k{i}", fn, (i, *extra)) for i in range(count)]


def keyed_items_of(fn, marker_dir, count=8):
    return [(f"k{i}", fn, (i, f"k{i}", str(marker_dir)))
            for i in range(count)]


CLEAN = {f"k{i}": i * i for i in range(8)}


# -- policy validation -------------------------------------------------------


class TestPolicy:
    def test_default_policy_is_disabled(self):
        policy = SupervisionPolicy()
        assert not policy.enabled

    def test_any_knob_enables(self):
        assert SupervisionPolicy(max_sample_seconds=1.0).enabled
        assert SupervisionPolicy(hang_seconds=1.0).enabled
        assert SupervisionPolicy(max_retries=1).enabled

    def test_validate_rejects_nonsense(self):
        for bad in (SupervisionPolicy(max_sample_seconds=-1.0),
                    SupervisionPolicy(hang_seconds=0.0),
                    SupervisionPolicy(max_retries=-1)):
            with pytest.raises(ConfigurationError):
                bad.validate()

    def test_describe_names_active_knobs(self):
        text = SupervisionPolicy(max_sample_seconds=2.0,
                                 max_retries=3).describe()
        assert "2" in text and "3" in text

    def test_disabled_policy_takes_plain_path(self):
        outcome = run_parallel_sweep(items_of(square), jobs=1,
                                     policy=SupervisionPolicy())
        assert dict(outcome.results) == CLEAN
        assert outcome.quarantined == ()


# -- serial supervision (jobs=1: cooperative deadline + retry ladder) --------


class TestSerialSupervision:
    POLICY = SupervisionPolicy(max_retries=2, seed=7)

    def test_fault_free_matches_unsupervised(self):
        supervised = run_parallel_sweep(items_of(square), policy=self.POLICY)
        plain = run_parallel_sweep(items_of(square), jobs=1)
        assert dict(supervised.results) == dict(plain.results)
        assert supervised.complete

    def test_fail_once_retries_to_bit_identical(self, tmp_path):
        outcome = run_parallel_sweep(
            keyed_items_of(fail_once, tmp_path), policy=self.POLICY)
        assert dict(outcome.results) == CLEAN
        assert outcome.failures == () and outcome.quarantined == ()

    def test_exhausted_retries_is_plain_failure_not_quarantine(self):
        outcome = run_parallel_sweep(
            [("bad", always_fail, (0,)), ("ok", square, (2,))],
            policy=self.POLICY)
        # A ReproError-only history is a model failure, not a process
        # fault: recorded as failed, never quarantined.
        assert outcome.failures == ("bad",)
        assert outcome.quarantined == ()
        assert outcome.results == {"ok": 4}

    def test_cooperative_deadline_quarantines(self):
        policy = SupervisionPolicy(max_sample_seconds=0.15, seed=7)
        outcome = run_parallel_sweep(
            [("slow", slow_cooperative, (1, 10.0)),
             ("fast", square, (3,))], policy=policy)
        assert outcome.quarantined == ("slow",)
        assert outcome.results == {"fast": 9}
        assert [t.kind for t in outcome.timeouts] == ["deadline"]
        assert outcome.timeouts[0].key == "slow"

    def test_retry_events_are_emitted(self, tmp_path):
        with obs.instrumented() as registry:
            run_parallel_sweep(keyed_items_of(fail_once, tmp_path),
                               policy=self.POLICY)
            kinds = obs.events().kinds()
        assert kinds.get("exec.supervise.retry", 0) == 8
        assert registry.snapshot()["counters"].get(
            "sweep.supervise.quarantined", 0) == 0


class TestCooperativePrimitives:
    def test_tick_is_noop_when_disarmed(self):
        tick()  # must never raise outside a supervised sample

    def test_sample_deadline_raises_past_budget(self):
        with pytest.raises(DeadlineExceeded) as excinfo:
            with sample_deadline("probe", 0.05):
                time.sleep(0.08)
                tick()
        assert excinfo.value.limit == pytest.approx(0.05)

    def test_sample_deadline_disarms_on_exit(self):
        with sample_deadline("probe", 0.01):
            pass
        time.sleep(0.02)
        tick()  # the expired deadline must not leak out of the context


# -- parallel supervision (watchdog, crash retry, quarantine) ----------------


class TestParallelSupervision:
    POLICY = SupervisionPolicy(hang_seconds=0.6, max_retries=2, seed=7)

    def test_fault_free_matches_serial(self):
        parallel = run_parallel_sweep(items_of(square), jobs=2,
                                      policy=self.POLICY)
        assert dict(parallel.results) == CLEAN
        assert parallel.complete

    def test_crash_once_retries_to_bit_identical(self, tmp_path):
        # One worker-killing sample among honest ones: the pool break
        # is blamed on the right key, which retries to the clean value.
        # (Only one crasher: a pool down-shifted to the serial fallback
        # would run an unspent crash marker in the parent process.)
        items = [(f"k{i}", square, (i,)) for i in range(8)]
        items[5] = ("k5", crash_once, (5, "k5", str(tmp_path)))
        outcome = run_parallel_sweep(items, jobs=2, policy=self.POLICY)
        assert dict(outcome.results) == CLEAN
        assert outcome.quarantined == ()

    def test_hang_once_is_killed_and_retried(self, tmp_path):
        items = [(f"k{i}", square, (i,)) for i in range(6)]
        items[3] = ("k3", hang_once, (3, "k3", str(tmp_path)))
        outcome = run_parallel_sweep(items, jobs=2, policy=self.POLICY)
        assert outcome.results["k3"] == 9
        assert outcome.quarantined == ()
        assert any(t.kind == "hang" and t.key == "k3"
                   for t in outcome.timeouts)

    def test_permanent_hang_is_quarantined_not_lost(self):
        items = [(f"k{i}", square, (i,)) for i in range(6)]
        items[2] = ("k2", always_hang, (2,))
        policy = SupervisionPolicy(hang_seconds=0.5, max_retries=1, seed=7)
        outcome = run_parallel_sweep(items, jobs=2, policy=policy)
        assert outcome.quarantined == ("k2",)
        assert set(outcome.results) == {f"k{i}" for i in range(6)} - {"k2"}
        assert not outcome.complete
        assert "quarantined" in outcome.describe()

    def test_telemetry_of_final_attempt_only(self, tmp_path):
        policy = SupervisionPolicy(max_retries=2, seed=7)
        with obs.instrumented():
            outcome = run_parallel_sweep(
                items_of(emitting, count=6), jobs=2, policy=policy)
            ticks = [e for e in obs.events().events()
                     if e.kind == "test.tick"]
        assert outcome.complete
        # one event per sample, merged in submission order
        assert [e.payload["key"] for e in ticks] == list(range(6))

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_retried_attempt_telemetry_is_dropped(self, tmp_path, chunk):
        # Every sample fails once and emits on each attempt; only the
        # attempt that retires it reaches the report (a multi-item chunk
        # with a retry is split, so its siblings re-run alone).
        policy = SupervisionPolicy(max_retries=2, seed=7)
        with obs.instrumented():
            outcome = run_parallel_sweep(
                keyed_items_of(emitting_fail_once, tmp_path, count=6),
                jobs=2, chunk_size=chunk, policy=policy)
            ticks = [e for e in obs.events().events()
                     if e.kind == "test.tick"]
        assert outcome.complete
        assert [e.payload["key"] for e in ticks] == list(range(6))


# -- retry determinism across checkpoint kill+resume (satellite) -------------


#: A sweep in its own interpreter.  Item k1 takes the heartbeat queue's
#: cross-process write lock and either dies holding it (``die``: the
#: state a worker SIGKILLed while its feeder thread sends a heartbeat
#: leaves behind) or returns holding it (``keep``: the lock stays taken
#: while the pool lives on).  With ``hang`` a later item hangs for good.
_HEARTBEAT_LOCK_SWEEP = """
import os, sys, time
from repro.exec import SupervisionPolicy, run_parallel_sweep, supervise

def square(value):
    time.sleep(0.05)
    return value * value

def die_holding_heartbeat_lock(value):
    supervise._CHANNEL._wlock.acquire()
    os._exit(9)

def keep_heartbeat_lock(value):
    supervise._CHANNEL._wlock.acquire()
    return value * value

def hang(value):
    time.sleep(60.0)

items = [(f"k{i}", square, (i,)) for i in range(8)]
if sys.argv[1] == "die":
    items[1] = ("k1", die_holding_heartbeat_lock, (1,))
else:
    items[1] = ("k1", keep_heartbeat_lock, (1,))
if "hang" in sys.argv:
    items[6] = ("k6", hang, (6,))
outcome = run_parallel_sweep(items, jobs=2, chunk_size=1,
                             policy=SupervisionPolicy(hang_seconds=0.5))
print(sorted(outcome.results), sorted(outcome.quarantined), flush=True)
"""


class TestTakenHeartbeatLock:
    """A heartbeat write lock that is never released must neither blind
    the watchdog of a rebuilt pool nor keep a worker, and so the process
    that ran the sweep, from exiting."""

    LIMIT_SECONDS = 60.0

    def run_sweep(self, *argv):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        # Own session: a wedged sweep's workers are killed with it.
        proc = subprocess.Popen(
            [sys.executable, "-c", _HEARTBEAT_LOCK_SWEEP, *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=self.LIMIT_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            pytest.fail(f"sweep still running after {self.LIMIT_SECONDS}s "
                        f"(stdout {out!r})")
        assert proc.returncode == 0, err
        return out

    @staticmethod
    def keys(*missing):
        return [f"k{i}" for i in range(8) if i not in missing]

    def test_workers_exit_while_the_lock_is_taken(self):
        assert self.run_sweep("keep") == f"{self.keys()} []\n"

    def test_process_exits_after_a_worker_dies_holding_it(self):
        assert self.run_sweep("die") == f"{self.keys(1)} ['k1']\n"

    def test_rebuilt_pool_still_strikes_a_hang(self):
        assert (self.run_sweep("die", "hang")
                == f"{self.keys(1, 6)} ['k1', 'k6']\n")


class TestRetryDeterminismAcrossResume:
    def _clean(self):
        return dict(run_parallel_sweep(items_of(square), jobs=1).results)

    @staticmethod
    def _one_flaky(marker_dir):
        items = [(f"k{i}", square, (i,)) for i in range(8)]
        items[3] = ("k3", fail_once, (3, "k3", str(marker_dir)))
        return items

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_mid_retry_is_bit_identical(self, tmp_path, jobs):
        """Kill a sweep after a sample's failed first attempt; the
        resumed sweep retries that sample and lands bit-identical."""
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        ckpt = Checkpoint(tmp_path / "sweep.json", fingerprint="fp-retry")
        # First run: no retries allowed, so the injected single failure
        # retires k3; everything else lands in the checkpoint — the
        # state a kill between attempts would leave behind.
        first = run_parallel_sweep(
            self._one_flaky(marker_dir), jobs=jobs,
            policy=SupervisionPolicy(max_retries=0, hang_seconds=5.0,
                                     seed=7),
            checkpoint=ckpt, save_every=1)
        assert first.failures == ("k3",)
        assert len(first.results) == 7
        # Resume: only k3 is re-attempted (its marker is spent),
        # completing the sweep bit-identically to a clean run.
        resumed = run_parallel_sweep(
            self._one_flaky(marker_dir), jobs=jobs,
            policy=SupervisionPolicy(max_retries=1, hang_seconds=5.0, seed=7),
            checkpoint=ckpt)
        assert dict(resumed.results) == self._clean()
        assert resumed.complete
        assert ckpt.load() == self._clean()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_equals_uninjected(self, tmp_path, jobs):
        injected = run_parallel_sweep(
            keyed_items_of(fail_once, tmp_path), jobs=jobs,
            policy=SupervisionPolicy(max_retries=1, hang_seconds=5.0, seed=7))
        assert dict(injected.results) == self._clean()


# -- graceful interruption ---------------------------------------------------


def interrupting(value):
    if value == 4:
        raise KeyboardInterrupt
    return value * value


class TestInterruption:
    def test_serial_interrupt_yields_partial_outcome(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "int.json", fingerprint="fp-int")
        outcome = run_parallel_sweep(items_of(interrupting), jobs=1,
                                     checkpoint=ckpt, save_every=1)
        assert outcome.interrupted
        assert not outcome.complete
        assert dict(outcome.results) == {f"k{i}": i * i for i in range(4)}
        assert "interrupted" in outcome.describe()
        # The final parent checkpoint holds everything merged so far.
        assert ckpt.load() == {f"k{i}": i * i for i in range(4)}

    def test_supervised_serial_interrupt(self):
        outcome = run_parallel_sweep(
            items_of(interrupting),
            policy=SupervisionPolicy(max_retries=1, seed=7))
        assert outcome.interrupted
        assert dict(outcome.results) == {f"k{i}": i * i for i in range(4)}

    def test_sigterm_raises_keyboard_interrupt_in_trap(self):
        with pytest.raises(KeyboardInterrupt):
            with trap_termination():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(2.0)

    def test_trap_restores_previous_handler(self):
        before = signal.getsignal(signal.SIGTERM)
        with trap_termination():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# -- validation --------------------------------------------------------------


class TestValidation:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel_sweep([("a", square, (1,)),
                                ("a", square, (2,))],
                               policy=SupervisionPolicy(max_retries=1))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel_sweep([("a", square, (1,))], jobs=0,
                               policy=SupervisionPolicy(max_retries=1))

    def test_budget_still_enforced(self):
        outcome = run_parallel_sweep(
            items_of(square), policy=SupervisionPolicy(max_retries=1),
            budget=RunBudget(max_seconds=0.0))
        assert outcome.exhausted == "max_seconds"
        assert outcome.completed == 0
