"""The sweep executor: chunked dispatch, ordered merge, one blame rule.

``run_parallel_sweep`` evaluates keyed work items — in-process at
``jobs=1``, over a pool of worker processes otherwise — and merges the
results back **in submission order**, so the outcome (results dict,
failure list, checkpoint contents) is bit-identical at every ``jobs``
and ``chunk_size`` setting.  The contract rests on four rules:

* **Chunked dispatch.**  Pending items are cut into chunks of
  ``chunk_size`` (default: one item in-process, about four chunks per
  worker in a pool); each chunk is one dispatch.  An item function may
  expose a ``chunk`` method taking the chunk's argument tuples and
  returning one ``(ok, value_or_error)`` pair per item; a multi-item
  chunk of such items is then evaluated in one call (Monte-Carlo uses
  this to solve a chunk as one batched transient).
* **Ordered merge.**  Finished items wait until every earlier item has
  been merged.  Failure accounting, the ``max_failures`` check,
  progress advances, telemetry fold-in and ``save_every`` checkpoint
  saves all happen at merge time, per item, so a failure budget stops
  the sweep at the same item whatever the chunking.  ``max_seconds`` is
  checked before each dispatch instead: no chunk starts after it, and
  every chunk already started is finished and merged, so a run may
  overshoot it by one chunk per worker but never discards work.
* **Parent-only checkpoints.**  Workers never touch the checkpoint; the
  parent saves the ``done`` mapping every ``save_every`` completed
  items, so a killed run resumes — at any ``jobs`` — to the identical
  final state.
* **One blame rule.**  A fault that takes out a chunk of more than one
  item — a worker crash breaking the pool, a watchdog kill, a batched
  chunk raising as a whole, an item failing while retries remain —
  charges nobody: its items are requeued as single-item chunks.  Items requeued after an ambiguous pool break run
  one at a time, so the next break names its culprit.  Only a
  single-item chunk is charged a strike.

A strike is a crash, a hang, a deadline overrun or a
:class:`~repro.errors.ReproError`.  Under the default
:class:`~repro.exec.supervise.SupervisionPolicy` the first strike is
final: the key lands in ``failures`` (``sweep.failures``; a crash also
counts ``sweep.worker_crashes``).  With ``max_retries`` the item is
requeued after a seeded backoff.  Under a policy with any guard set, an
item retired with a crash, hang or deadline among its strikes is
*quarantined* rather than failed.  Any other exception is
a programming error and is re-raised in the parent once the items
before it are merged and checkpointed.  Every pool loss rebuilds the
pool; every ``SHRINK_AFTER`` losses halve it.

Work items are ``(key, fn, args)`` triples: at ``jobs > 1`` ``fn``,
``args`` and the returned value must pickle.  Each worker chunk runs
under fresh telemetry instances when the parent has instrumentation
enabled; the parent keeps a chunk's snapshots only from the attempt
that retires all of its items (a split or retried attempt's are
dropped) and folds them into its own in submission order (metrics via :meth:`~repro.obs.MetricsRegistry.merge_snapshot`,
events via :meth:`~repro.obs.EventLog.extend`, series via
:meth:`~repro.obs.TimeSeriesRecorder.merge_snapshot`).
"""

from __future__ import annotations

import collections
import logging
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import time
from concurrent.futures import (FIRST_COMPLETED, CancelledError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.checkpoint import (BudgetClock, Checkpoint, RunBudget,
                              SweepOutcome)
from repro.errors import ConfigurationError, DeadlineExceeded, ReproError
from repro.exec.supervise import (POLL_SECONDS, SHRINK_AFTER,
                                  SupervisionPolicy, TimeoutFailure, announce,
                                  backoff_delay, init_worker, sample_deadline,
                                  trap_termination)

_log = logging.getLogger(__name__)

#: One work item: (unique key, callable, arguments).
WorkItem = Tuple[str, Callable[..., Any], Tuple[Any, ...]]

#: Slack added to the deadline before the parent hard-kills a worker:
#: the cooperative :func:`~repro.exec.supervise.tick` raise gets first
#: claim on the deadline, the SIGKILL is the backstop.
_KILL_GRACE = 0.25

#: How long the parent waits for in-flight futures to settle after a
#: pool break before treating them as lost.
_SETTLE_SECONDS = 5.0


# -- worker side ----------------------------------------------------------------


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a string-carrying stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # the stand-in *is* the record
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _status(exc: Exception) -> Tuple[str, Any]:
    """Classify one evaluation error as a ``(status, payload)`` pair."""
    if isinstance(exc, DeadlineExceeded):
        return "timeout", (str(exc), exc.elapsed)
    if isinstance(exc, ReproError):
        return "fail", f"{type(exc).__name__}: {exc}"
    return "raise", exc


def _attempt(call: Callable[[], Any], token: Any, span: int,
             deadline: Optional[float], beat_every: float):
    """Evaluate ``call()`` under the watchdog; one ``(status, payload)``."""
    announce(token, span)
    try:
        if deadline is None and not beat_every:
            return "ok", call()
        with sample_deadline(token, deadline, beat_every):
            return "ok", call()
    except Exception as exc:  # classified and handed to the parent
        return _status(exc)


def _evaluate(token: Any, chunk: Sequence[WorkItem],
              deadline: Optional[float], beat_every: float):
    """One ``(status, payload)`` pair per item of ``chunk``.

    ``"ok"`` carries the value, ``"fail"``/``"timeout"`` the error,
    ``"raise"`` an exception to re-raise in the parent and ``"split"``
    marks a batched chunk that failed as a whole (the blame rule then
    requeues its items one by one).
    """
    fn = chunk[0][1]
    batched = getattr(fn, "chunk", None)
    if (len(chunk) == 1 or batched is None
            or any(item_fn is not fn for _key, item_fn, _args in chunk)):
        return [_attempt(lambda: item_fn(*args), token, 1, deadline,
                         beat_every)
                for _key, item_fn, args in chunk]
    span = len(chunk)
    status, payload = _attempt(
        lambda: batched([args for _key, _fn, args in chunk]), token, span,
        None if deadline is None else deadline * span, beat_every)
    if status == "ok":
        return [("ok", value) if ok else _status(value)
                for ok, value in payload]
    return [(status if status == "raise" else "split", payload)] * span


def _run_chunk(token: Any, chunk: Sequence[WorkItem],
               deadline: Optional[float], beat_every: float,
               instrument: bool):
    """Worker-side :func:`_evaluate` (module-level so it pickles).

    Returns ``(outcomes, telemetry)``; ``"raise"`` payloads are made
    portable and ``telemetry`` bundles the worker's metrics, events and
    series snapshots (``None`` unless ``instrument``).
    """
    if instrument:
        registry = obs.MetricsRegistry()
        event_log = obs.EventLog()
        recorder = obs.TimeSeriesRecorder()
        # The one sanctioned worker-side global mutation: fresh telemetry
        # instances whose snapshots the *parent* merges in submission
        # order — nothing recorded here is lost or racy.
        obs.enable(registry=registry, tracer=obs.Tracer(),
                   events=event_log, timeseries=recorder)
    outcomes = [(status, _portable(payload) if status == "raise" else payload)
                for status, payload in _evaluate(token, chunk, deadline,
                                                 beat_every)]
    telemetry = None
    if instrument:
        telemetry = {"metrics": registry.snapshot(),
                     "events": event_log.to_dicts(),
                     "timeseries": recorder.snapshot()}
    return outcomes, telemetry


def _merge_telemetry(telemetry) -> None:
    """Fold one worker chunk's telemetry into the parent's instances."""
    if telemetry is None or not obs.is_enabled():
        return
    obs.metrics().merge_snapshot(telemetry.get("metrics", {}))
    obs.events().extend(telemetry.get("events", []))
    obs.timeseries().merge_snapshot(telemetry.get("timeseries", {}))


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


# -- parent side ----------------------------------------------------------------


class _Item:
    """Parent-side lifecycle of one work item across its attempts."""

    __slots__ = ("index", "key", "fn", "args", "attempts", "process_fault",
                 "eligible_at", "status", "value", "telemetry")

    def __init__(self, index: int, key: str, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        self.index = index
        self.key = key
        self.fn = fn
        self.args = args
        self.attempts = 0  # charged strikes
        self.process_fault = False  # a crash, hang or deadline was charged
        self.eligible_at = 0.0  # monotonic gate for (re)dispatch
        #: Final state: "ok" | "fail" | "quarantined" | "raise".
        self.status: Optional[str] = None
        self.value: Any = None  # result, failure detail or exception
        self.telemetry: Optional[dict] = None  # its retiring chunk's


class _Flight:
    """One chunk in a worker: its future and what the channel said."""

    __slots__ = ("token", "chunk", "future", "pid", "started", "beat",
                 "span")

    def __init__(self, token: int, chunk: List[_Item], future) -> None:
        self.token = token
        self.chunk = chunk
        self.future = future
        self.pid: Optional[int] = None
        self.started: Optional[float] = None  # parent receipt of "start"
        self.beat = 0.0
        self.span = 1


class _Sweep:
    """State of one :func:`run_parallel_sweep` call."""

    def __init__(self, items: Sequence[WorkItem], done: Dict[str, Any],
                 jobs: int, chunk_size: Optional[int],
                 policy: SupervisionPolicy, checkpoint, budget, save_every,
                 encode, progress) -> None:
        self.source = items
        #: Indexes into ``items`` still to evaluate, in sweep order.
        self.todo: Sequence[int] = (
            range(len(items)) if not done else
            [index for index, (key, _fn, _args) in enumerate(items)
             if key not in done])
        #: The ``_Item`` of each ``todo`` position, created when its
        #: chunk is first queued and released once merged.
        self.items: List[Optional[_Item]] = [None] * len(self.todo)
        self.chunk_size = chunk_size or (1 if jobs == 1 else max(
            1, math.ceil(len(self.todo) / (4 * jobs))))
        self.fresh = 0  # todo positions below this have items
        #: Chunks ready to run: requeued ones first, then fresh ones
        #: cut by :meth:`grow` as the queue runs dry.
        self.queue: collections.deque = collections.deque()
        self.done = done
        self.jobs = jobs
        self.policy = policy
        self.checkpoint = checkpoint
        self.save_every = save_every
        self.encode = encode
        self.progress = progress
        self.clock = BudgetClock(budget)
        self.cursor = 0  # items[:cursor] are merged
        self.dirty = 0
        self.failures: List[str] = []
        self.quarantined: List[str] = []
        self.errors: Dict[str, str] = {}
        self.timeouts: List[TimeoutFailure] = []
        self.exhausted: Optional[str] = None  # the budget that stopped it
        self.suspects: set = set()  # indexes that must run alone
        self.flights: List[_Flight] = []
        self.tokens = 0
        self.losses = 0

    def grow(self) -> bool:
        """Queue the next fresh chunk; False once every item has one."""
        start = self.fresh
        if start == len(self.todo):
            return False
        self.fresh = min(start + self.chunk_size, len(self.todo))
        chunk = []
        for position in range(start, self.fresh):
            index = self.todo[position]
            key, fn, args = self.source[index]
            chunk.append(_Item(index, key, fn, args))
        self.items[start:self.fresh] = chunk
        self.queue.append(chunk)
        return True

    # -- merge ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """All merged, or out of budget with nothing left in flight (a
        failure stop does not wait for flights it will not merge)."""
        if self.cursor == len(self.items) or self.exhausted == "max_failures":
            return True
        return self.exhausted is not None and not self.flights

    def out_of_time(self) -> bool:
        """Check ``max_seconds`` before a dispatch; the stop is sticky."""
        if self.exhausted is None and self.clock.out_of_time():
            self.exhausted = "max_seconds"
            _log.info("sweep stopped on max_seconds after %d item(s)",
                      len(self.done))
        return self.exhausted is not None

    def save(self) -> None:
        if self.checkpoint is not None and self.dirty:
            self.checkpoint.save(self.done)
            self.dirty = 0

    def drain(self) -> None:
        """Merge the finished prefix in submission order."""
        while self.cursor < len(self.items):
            item = self.items[self.cursor]
            if item is None or item.status is None:
                return
            if self.clock.out_of_failures():
                self.exhausted = "max_failures"
                _log.info("sweep stopped on max_failures after %d item(s)",
                          len(self.done))
                return
            _merge_telemetry(item.telemetry)
            if item.status == "raise":  # a programming error: save, surface
                self.save()
                raise item.value
            self.items[self.cursor] = None
            self.cursor += 1
            if item.status == "ok":
                self.done[item.key] = self.encode(item.value)
                item.value = item.telemetry = None
                self.dirty += 1
                if self.progress is not None:
                    self.progress.advance(completed=1)
                if self.dirty >= self.save_every:
                    self.save()
                continue
            self.clock.fail()
            self.errors[item.key] = item.value
            if item.status == "quarantined":
                _log.warning("sample %r quarantined after %d attempt(s): %s",
                             item.key, item.attempts, item.value)
                obs.metrics().counter("sweep.supervise.quarantined").inc()
                obs.event("exec.supervise.quarantine", key=item.key,
                          attempts=item.attempts)
                self.quarantined.append(item.key)
            else:
                _log.warning("sweep item %r failed: %s", item.key, item.value)
                obs.metrics().counter("sweep.failures").inc()
                self.failures.append(item.key)
            if self.progress is not None:
                self.progress.advance(failed=1)

    # -- outcomes of one attempt ------------------------------------------

    def charge(self, item: _Item, kind: str, detail: str,
               elapsed: Optional[float] = None,
               limit: Optional[float] = None) -> None:
        """One strike against an item: requeue it with backoff or retire it."""
        item.attempts += 1
        item.process_fault |= kind != "fail"
        if kind in ("deadline", "hang"):
            strike = TimeoutFailure(key=item.key, kind=kind,
                                    elapsed_s=float(elapsed or 0.0),
                                    limit_s=float(limit or 0.0),
                                    attempt=item.attempts)
            self.timeouts.append(strike)
            _log.warning("sample %r %s (attempt %d): %s",
                         item.key, kind, item.attempts, detail)
            obs.metrics().counter("sweep.supervise.timeouts").inc()
            obs.event("exec.supervise.timeout", key=item.key, fault=kind,
                      elapsed_s=strike.elapsed_s, limit_s=strike.limit_s,
                      attempt=item.attempts)
        elif kind == "crash":
            _log.warning("sweep worker crashed evaluating item %r", item.key)
            obs.metrics().counter("sweep.worker_crashes").inc()
            obs.event("sweep.worker_crash", key=item.key)
        if item.attempts <= self.policy.max_retries:
            delay = backoff_delay(self.policy, item.index, item.attempts)
            item.eligible_at = time.monotonic() + delay
            obs.event("exec.supervise.retry", key=item.key,
                      attempt=item.attempts, delay_s=round(delay, 6))
            self.queue.appendleft([item])
            return
        # Only a supervised sweep quarantines: the default policy records
        # a crash as a plain failure.
        quarantine = self.policy.enabled and item.process_fault
        item.status = "quarantined" if quarantine else "fail"
        item.value = detail
        self.suspects.discard(item.index)

    def absorb(self, chunk: List[_Item], outcomes, telemetry) -> None:
        """Record one evaluated chunk's per-item outcomes.

        The chunk's telemetry is kept only if this attempt retires every
        item: a multi-item chunk that would requeue one is split instead,
        so no merged report carries a superseded attempt's events.
        """
        statuses = [status for status, _payload in outcomes]
        if statuses[0] == "split" or (
                len(chunk) > 1 and self.policy.max_retries
                and any(s not in ("ok", "raise") for s in statuses)):
            self.split(chunk)
            return
        for item, (status, payload) in zip(chunk, outcomes):
            if status in ("ok", "raise"):
                item.status = status
                item.value = payload
                self.suspects.discard(item.index)
            elif status == "timeout":
                message, elapsed = payload
                self.charge(item, "deadline", message, elapsed=elapsed,
                            limit=self.policy.max_sample_seconds)
            else:
                self.charge(item, "fail", payload)
        if all(item.status is not None for item in chunk):
            chunk[0].telemetry = telemetry

    def split(self, chunk: List[_Item], suspect: bool = False) -> None:
        """The blame rule: requeue a faulted chunk's items uncharged."""
        if suspect:
            self.suspects.update(item.index for item in chunk)
        self.queue.extendleft([item] for item in reversed(chunk))

    # -- in-process evaluation (jobs=1) -----------------------------------

    def run_inline(self) -> None:
        deadline = self.policy.max_sample_seconds
        while not self.finished:
            if self.out_of_time() or not (self.queue or self.grow()):
                return
            chunk = self.queue.popleft()
            delay = chunk[0].eligible_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcomes = _evaluate(chunk[0].key,
                                 [(i.key, i.fn, i.args) for i in chunk],
                                 deadline, 0.0)
            self.absorb(chunk, outcomes, None)
            self.drain()

    # -- pool evaluation (jobs>1) -----------------------------------------

    def run_pool(self) -> None:
        context = _pool_context()
        channel = None
        instrument = obs.is_enabled()

        def new_pool() -> ProcessPoolExecutor:
            # Each pool gets its own heartbeat queue: a worker killed
            # while sending a heartbeat dies holding the queue's
            # cross-process write lock, and no later "start" or beat
            # sent through that queue would ever arrive.
            nonlocal channel
            if channel is not None:
                channel.close()
            channel = context.Queue() if self.policy.watched else None
            return ProcessPoolExecutor(max_workers=self.jobs,
                                       mp_context=context,
                                       initializer=init_worker,
                                       initargs=(channel,))

        pool = new_pool()
        try:
            while not self.finished:
                # Out of time: dispatch nothing more, but finish and
                # merge what is already in flight.
                dead = not self.out_of_time() and self.dispatch(pool,
                                                                instrument)
                if not dead:
                    futures = [flight.future for flight in self.flights]
                    timeout = self.wait_timeout()
                    if futures:
                        wait(futures, timeout=timeout,
                             return_when=FIRST_COMPLETED)
                    elif timeout and self.exhausted is None:
                        time.sleep(timeout)  # a retry waits out its backoff
                broken = self.harvest()
                struck = False
                if channel is not None:
                    self.pump(channel)
                    struck = self.watchdog()
                if dead or broken or struck:
                    # The pool is gone: let the other flights settle,
                    # keep what finished, and blame what was lost.
                    futures = [flight.future for flight in self.flights]
                    if futures:
                        wait(futures, timeout=_SETTLE_SECONDS)
                    broken += self.harvest() + self.flights
                    self.flights = []
                    self.blame(broken, deliberate=struck)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self.degrade(new_pool)
                self.drain()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            if channel is not None:
                channel.close()

    def dispatch(self, pool: ProcessPoolExecutor, instrument: bool) -> bool:
        """Submit eligible chunks up to one per worker; True if the pool
        turned out to be broken."""
        now = time.monotonic()
        position = 0
        while len(self.flights) < self.jobs and (
                position < len(self.queue) or self.grow()):
            chunk = self.queue[position]
            if any(f.chunk[0].index in self.suspects for f in self.flights):
                return False  # a suspect runs alone
            if chunk[0].eligible_at > now:
                position += 1
                continue
            if chunk[0].index in self.suspects and self.flights:
                return False  # wait for the pool to empty
            self.tokens += 1
            try:
                future = pool.submit(
                    _run_chunk, self.tokens,
                    [(i.key, i.fn, i.args) for i in chunk],
                    self.policy.max_sample_seconds,
                    self.policy.beat_seconds(), instrument)
            except BrokenProcessPool:
                return True
            del self.queue[position]
            self.flights.append(_Flight(self.tokens, chunk, future))
        return False

    def wait_timeout(self) -> Optional[float]:
        """How long the parent may block: forever, unless a watchdog is
        armed or a retry waits out its backoff."""
        if self.policy.watched:
            return POLL_SECONDS
        if len(self.flights) == self.jobs:
            return None  # only a finishing flight can free a worker
        now = time.monotonic()
        gates = [chunk[0].eligible_at for chunk in self.queue
                 if chunk[0].eligible_at > now]
        return min(gates) - now if gates else None

    def harvest(self) -> List[_Flight]:
        """Absorb finished flights; returns the ones the pool lost."""
        broken: List[_Flight] = []
        for flight in [f for f in self.flights if f.future.done()]:
            self.flights.remove(flight)
            try:
                outcomes, telemetry = flight.future.result()
            except (BrokenProcessPool, CancelledError, OSError):
                broken.append(flight)
                continue
            self.absorb(flight.chunk, outcomes, telemetry)
        return broken

    def pump(self, channel) -> None:
        """Apply queued worker start/heartbeat messages to the flights."""
        by_token = {flight.token: flight for flight in self.flights}
        while True:
            try:
                kind, token, pid, span = channel.get_nowait()
            except queue_module.Empty:
                return
            except (OSError, EOFError):  # pragma: no cover - torn queue
                return
            flight = by_token.get(token)
            if flight is None:
                continue  # ghost message from a finished or lost flight
            now = time.monotonic()
            if kind == "start":
                flight.started, flight.pid, flight.span = now, pid, span
            flight.beat = now

    def watchdog(self) -> bool:
        """Strike and kill overdue or silent flights; True if any were."""
        struck = False
        now = time.monotonic()
        limit = self.policy.max_sample_seconds
        hang = self.policy.hang_seconds
        for flight in list(self.flights):
            if flight.started is None:
                continue
            elapsed = now - flight.started
            if limit is not None and elapsed > limit * flight.span + _KILL_GRACE:
                kind, window = "deadline", limit
            elif hang is not None and now - flight.beat > hang:
                kind, window = "hang", hang
            else:
                continue
            self.flights.remove(flight)
            if len(flight.chunk) == 1:
                what = ("worker overran its deadline" if kind == "deadline"
                        else "worker went silent")
                self.charge(flight.chunk[0], kind, what, elapsed=elapsed,
                            limit=window)
            else:
                self.split(flight.chunk)
            if flight.pid:
                try:
                    os.kill(flight.pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already gone
                    pass
            struck = True
        return struck

    def blame(self, broken: List[_Flight], deliberate: bool) -> None:
        """Apply the blame rule to the flights a pool loss took out."""
        lost = [item for flight in broken for item in flight.chunk]
        if deliberate:
            # The watchdog already struck its culprits; the rest of the
            # pool went down with them and is requeued as it was.
            self.queue.extendleft(flight.chunk for flight in reversed(broken))
        elif len(lost) == 1:
            self.charge(lost[0], "crash", "worker process died")
        elif lost:
            obs.event("exec.supervise.isolate", suspects=len(lost))
            self.split(lost, suspect=True)

    def degrade(self, new_pool: Callable[[], ProcessPoolExecutor]):
        """Count one pool loss, halving the pool every SHRINK_AFTER."""
        self.losses += 1
        if self.losses % SHRINK_AFTER == 0 and self.jobs > 1:
            self.jobs = max(1, self.jobs // 2)
            _log.warning("repeated worker loss: shrinking pool to %d job(s)",
                         self.jobs)
            obs.event("exec.supervise.pool_shrink", jobs=self.jobs)
        return new_pool()


def run_parallel_sweep(items: Sequence[WorkItem],
                       jobs: int = 1,
                       checkpoint: Optional[Checkpoint] = None,
                       budget: Optional[RunBudget] = None,
                       save_every: int = 1,
                       encode: Optional[Callable[[Any], Any]] = None,
                       decode: Optional[Callable[[Any], Any]] = None,
                       chunk_size: Optional[int] = None,
                       progress: Optional[Any] = None,
                       policy: Optional[SupervisionPolicy] = None
                       ) -> SweepOutcome:
    """Evaluate keyed work items, in-process or over ``jobs`` workers.

    Completed items found in ``checkpoint`` are not re-evaluated (their
    stored value is decoded instead); ``encode``/``decode`` convert
    results to and from the checkpoint's JSON form.  ``budget`` bounds
    wall-clock time and failures; ``progress`` (a
    :class:`~repro.obs.progress.SweepProgress`) receives
    ``note_restored`` for checkpointed items and one ``advance`` per
    merged item.  ``chunk_size`` and ``jobs`` never change results, only
    dispatch.  ``policy`` adds deadlines, the hang watchdog and retries
    (module docstring).  SIGTERM/Ctrl-C is trapped: the final
    checkpoint is written and the partial outcome comes back with
    ``interrupted=True``.

    ``items`` is read chunk by chunk as the sweep dispatches, so a
    sequence that builds its items on demand holds in memory only those
    in flight or awaiting merge.
    """
    if len({key for key, _fn, _args in items}) != len(items):
        raise ConfigurationError("sweep item keys must be unique")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if save_every < 1:
        raise ConfigurationError("save_every must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    policy = policy or SupervisionPolicy()
    policy.validate()
    done: Dict[str, Any] = {}
    if checkpoint is not None:
        done = checkpoint.load() or {}
    if progress is not None and done:
        progress.note_restored(len(done))

    sweep = _Sweep(items, done, jobs, chunk_size, policy, checkpoint,
                   budget, save_every, encode or (lambda value: value),
                   progress)
    interrupted = False
    with obs.span("sweep.run", items=len(items), jobs=jobs):
        try:
            with trap_termination():
                if jobs == 1:
                    sweep.run_inline()
                else:
                    sweep.run_pool()
        except KeyboardInterrupt:
            # Graceful interruption (Ctrl-C, or SIGTERM via the trap):
            # keep every merged result, write the final checkpoint
            # below, and report a partial outcome.
            interrupted = True
            pending = len(sweep.items) - sweep.cursor
            _log.warning("sweep interrupted: %d item(s) done, %d pending",
                         len(done), pending)
            obs.event("sweep.interrupted", completed=len(done),
                      pending=pending)
    sweep.save()

    decode = decode or (lambda value: value)
    results = {key: decode(done[key])
               for key, _fn, _args in items if key in done}
    failed = len(sweep.failures) + len(sweep.quarantined)
    return SweepOutcome(
        results=results,
        completed=len(results),
        attempted=len(results) + failed,
        failures=tuple(sweep.failures),
        exhausted=sweep.exhausted,
        quarantined=tuple(sweep.quarantined),
        interrupted=interrupted,
        timeouts=tuple(sweep.timeouts),
        errors=dict(sweep.errors),
    )
