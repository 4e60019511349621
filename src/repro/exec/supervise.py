"""Supervision policy and the worker-side hooks of the sweep executor.

:func:`repro.exec.parallel.run_parallel_sweep` is the one sweep loop;
this module holds what that loop is configured by and what runs inside
each evaluating process:

* :class:`SupervisionPolicy` — the four knobs a caller sets.  The
  default policy *is* the plain behaviour: no deadline, no watchdog, no
  retry; a crashed or failed item is recorded once and the sweep goes on.
* **Per-sample deadline** (``max_sample_seconds``).  Enforced
  cooperatively by :func:`tick` calls inside long solver loops raising
  :class:`~repro.errors.DeadlineExceeded`, and by the parent watchdog,
  which SIGKILLs a worker that blows well past its deadline without
  cooperating (a non-Python spin, a stuck syscall).
* **Hung-worker watchdog** (``hang_seconds``).  Workers announce each
  item start and send throttled heartbeats over a multiprocessing queue
  (passed through the pool initializer — the one channel that crosses
  process creation).  A flight silent for longer than ``hang_seconds``
  is struck and its worker killed.
* **Seeded retry with backoff** (``max_retries``).  A struck item is
  requeued after ``BACKOFF_BASE * BACKOFF_FACTOR**(attempt-1)`` seconds
  (capped at ``BACKOFF_MAX``) with jitter drawn from a dedicated
  ``SeedSequence(policy.seed, spawn_key=(index, attempt))`` branch —
  never from the item's own model stream, so a retried sample is
  bit-identical to a first-attempt success.

:func:`trap_termination` routes SIGTERM to :class:`KeyboardInterrupt`
so an orchestrator's TERM gets the same final-checkpoint, partial
outcome treatment as Ctrl-C.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from typing import Any, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError, DeadlineExceeded

#: First retry delay in seconds.
BACKOFF_BASE = 0.05
#: Multiplier applied to the retry delay per further attempt.
BACKOFF_FACTOR = 2.0
#: Ceiling on the un-jittered retry delay, in seconds.
BACKOFF_MAX = 2.0
#: Jitter amplitude: delay *= 1 + JITTER_FRACTION * U(-1, 1).
JITTER_FRACTION = 0.25
#: Pool losses before the worker count halves (degradation).
SHRINK_AFTER = 2
#: Parent loop cadence, in seconds, while a watchdog is armed.
POLL_SECONDS = 0.02


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """Frozen knobs for one sweep (``None`` = that guard off)."""

    #: Hard per-sample wall-clock ceiling (cooperative raise, then kill).
    max_sample_seconds: Optional[float] = None
    #: Heartbeat silence after which an in-flight sample counts as hung.
    hang_seconds: Optional[float] = None
    #: Extra attempts per sample after the first (0 = never retry).
    max_retries: int = 0
    #: Root entropy for the retry-jitter stream (independent of every
    #: sample's model stream by construction).
    seed: int = 0

    @property
    def enabled(self) -> bool:
        """True when any guard is active (deadline, watchdog, retry)."""
        return self.watched or self.max_retries > 0

    @property
    def watched(self) -> bool:
        """True when the parent must hear worker starts and heartbeats."""
        return (self.max_sample_seconds is not None
                or self.hang_seconds is not None)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on meaningless knobs."""
        if (self.max_sample_seconds is not None
                and self.max_sample_seconds <= 0):
            raise ConfigurationError("max_sample_seconds must be > 0")
        if self.hang_seconds is not None and self.hang_seconds <= 0:
            raise ConfigurationError("hang_seconds must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")

    def beat_seconds(self) -> float:
        """Worker heartbeat period: a quarter of the hang window."""
        if self.hang_seconds is None:
            return 0.0
        return max(0.005, self.hang_seconds / 4.0)

    def describe(self) -> str:
        parts = []
        if self.max_sample_seconds is not None:
            parts.append(f"deadline {self.max_sample_seconds:g}s")
        if self.hang_seconds is not None:
            parts.append(f"hang watchdog {self.hang_seconds:g}s")
        if self.max_retries:
            parts.append(f"retries {self.max_retries}")
        return ", ".join(parts) if parts else "disabled"


@dataclasses.dataclass(frozen=True)
class TimeoutFailure:
    """One deadline/hang strike against a sample (possibly non-final)."""

    key: str
    kind: str  # "deadline" | "hang"
    elapsed_s: float
    limit_s: float
    attempt: int

    def describe(self) -> str:
        return (f"{self.key}: {self.kind} after {self.elapsed_s:.3f}s "
                f"(limit {self.limit_s:g}s, attempt {self.attempt})")


def backoff_delay(policy: SupervisionPolicy, index: int,
                  attempt: int) -> float:
    """Retry delay for one (item, attempt): exponential + seeded jitter.

    The jitter generator is seeded from ``SeedSequence(policy.seed,
    spawn_key=(index, attempt))`` — a branch of the policy's entropy
    tree that is disjoint from every sample's model stream, so backoff
    randomness can never perturb what a retried sample computes.
    """
    base = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
    seq = np.random.SeedSequence(entropy=policy.seed,
                                 spawn_key=(index, attempt))
    u = float(np.random.default_rng(seq).random())
    return base * (1.0 + JITTER_FRACTION * (2.0 * u - 1.0))


# -- worker-side state (per-process globals, set via the pool initializer) ----

_CHANNEL: Optional[Any] = None  # heartbeat queue, inherited at fork/spawn
_TOKEN: Optional[Any] = None  # flight being evaluated (None = disarmed)
_STARTED: float = 0.0  # monotonic time the current item started
_DEADLINE: Optional[float] = None  # cooperative ceiling, in seconds
_BEAT_EVERY: float = 0.0  # min seconds between heartbeats (0 = off)
_LAST_BEAT: float = 0.0


def init_worker(channel: Any) -> None:
    """Pool initializer: adopt the parent's heartbeat queue.

    Also restores the default SIGTERM disposition — a forked worker
    must not inherit the parent's :func:`trap_termination` handler
    (executor teardown TERMs workers, and a trapped TERM would turn
    into a spurious in-worker :class:`KeyboardInterrupt`).
    """
    global _CHANNEL
    _CHANNEL = channel
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _arm(token: Any, deadline: Optional[float], beat_every: float) -> None:
    """Install the watchdog state :func:`tick` checks for one item."""
    global _TOKEN, _STARTED, _DEADLINE, _BEAT_EVERY, _LAST_BEAT
    _TOKEN = token
    _STARTED = time.monotonic()
    _LAST_BEAT = _STARTED
    _DEADLINE = deadline
    _BEAT_EVERY = beat_every


def _disarm() -> None:
    """Clear the watchdog state (item finished)."""
    global _TOKEN, _DEADLINE, _BEAT_EVERY
    _TOKEN = None
    _DEADLINE = None
    _BEAT_EVERY = 0.0


def announce(token: Any, span: int) -> None:
    """Tell the parent this process started ``span`` items of a flight.

    A no-op without a heartbeat channel (in-process, or an unwatched
    pool), so the unsupervised path pays no syscall per item.
    """
    if _CHANNEL is not None:
        _send(("start", token, os.getpid(), span))


def _send(message: tuple) -> None:
    if _CHANNEL is not None:
        try:
            _CHANNEL.put(message)
        except Exception:  # channel torn down: the parent is exiting,
            pass           # nobody is listening any more


def _note_beat(now: float) -> None:
    """Record and ship one heartbeat (throttle bookkeeping is global)."""
    global _LAST_BEAT
    _LAST_BEAT = now
    _send(("beat", _TOKEN, os.getpid(), 0))


def tick() -> None:
    """Supervision hook for long loops (transient steps, recovery rungs).

    Near-zero cost when nothing is armed.  When an item is, this check
    (a) raises :class:`~repro.errors.DeadlineExceeded` once the item
    overruns its cooperative deadline, and (b) ships a throttled
    heartbeat so the parent's hang watchdog knows the item is alive.
    Under a fault-free run it observes the clock and never changes
    any computed value.
    """
    if _TOKEN is None:
        return
    now = time.monotonic()
    if _DEADLINE is not None and now - _STARTED > _DEADLINE:
        raise DeadlineExceeded("sample exceeded its deadline",
                               elapsed=now - _STARTED, limit=_DEADLINE)
    if _BEAT_EVERY and now - _LAST_BEAT >= _BEAT_EVERY:
        _note_beat(now)


@contextlib.contextmanager
def sample_deadline(key: Any, seconds: Optional[float],
                    beat_every: float = 0.0) -> Iterator[None]:
    """Arm :func:`tick` around one evaluation: a cooperative deadline of
    ``seconds`` and, in a watched worker, a heartbeat every
    ``beat_every`` seconds.  The one place the watchdog state is set."""
    _arm(key, seconds, beat_every)
    try:
        yield
    finally:
        _disarm()


@contextlib.contextmanager
def trap_termination() -> Iterator[None]:
    """Route SIGTERM to :class:`KeyboardInterrupt` for graceful shutdown.

    Installed around the sweep loop so an orchestrator's TERM gets the
    same cancel-futures / final-checkpoint / partial-outcome treatment
    as Ctrl-C.  A no-op off the main thread or where signals are
    unavailable; the previous handler is always restored.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    owner_pid = os.getpid()

    def _to_interrupt(signum, frame):
        if os.getpid() != owner_pid:
            # A forked worker inherited the trap: restore the default
            # disposition and let the TERM do what TERM does.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
