"""Fault-isolated parallel execution of verification units.

Campaign sweeps (protocols × layerings × inputs) and input-assignment
sweeps inside one ``check_all`` decompose into independent, deterministic
*units* of work.  This module runs those units across N worker
**processes** and treats worker failure as a first-class, recoverable
event rather than a run-ending catastrophe:

* **crash isolation** — each unit runs in a separate OS process; a
  segfault, ``os._exit``, OOM-kill or SIGKILL takes down one attempt of
  one unit, never the sweep;
* **hang detection** — workers emit heartbeats from a daemon thread
  every :attr:`PoolConfig.heartbeat_interval` seconds while a unit runs;
  a worker whose heartbeats stop for :attr:`PoolConfig.stall_timeout`
  seconds (frozen process, SIGSTOP, deadlocked interpreter) is killed
  and its unit rescheduled.  An optional per-attempt
  :attr:`PoolConfig.unit_timeout` bounds each attempt's wall clock;
* **bounded retry with backoff** — a failed attempt (crash, hang,
  timeout, or an exception raised by the unit function) is retried up to
  :attr:`PoolConfig.max_retries` times, each retry delayed by an
  exponentially growing :attr:`PoolConfig.retry_backoff`;
* **quarantine** — a unit that exhausts its retries is *quarantined*:
  recorded as failed with its fault history, while every other unit
  completes normally.  Callers surface quarantined units as
  UNKNOWN-with-cause verdicts instead of aborting the sweep;
* **deterministic merge** — results are keyed, never ordered by
  completion: :func:`run_units` returns a ``{key: UnitOutcome}`` mapping
  and callers merge in their own deterministic unit order, so a parallel
  sweep's output is a pure function of its input, independent of worker
  scheduling.  The unit functions themselves are deterministic, so even
  a retried unit returns the same value it would have on its first
  attempt;
* **withdrawal** — the ``on_complete`` callback may name units whose
  results the caller no longer needs (a sweep whose verdict is already
  fixed); their pending attempts are dropped undispatched, and a worker
  already running one is killed at once, with no fault recorded.  The
  health checks replace it while units remain.

The unit function must be a **module-level callable** (pickled by
reference under the ``spawn`` start method) taking one picklable payload
and returning a picklable value.  ``ConsensusReport`` objects — witnesses
included — are picklable by design, so verification units return full
reports.

Two mechanisms keep the plumbing cheap enough for fine-grained units
(the E14 fix — sub-1x scaling came from shipping rich state per unit):

* **shared context** — ``run_units(..., context=obj)`` pickles *obj*
  once per worker process (not once per unit) and calls
  ``fn(payload, context)``; payloads then carry only compact shard
  descriptors while the heavyweight system/model objects ride the
  context.  Because every unit a worker runs sees the *same* context
  object, per-process memos keyed on it (warm caches) hit across units
  instead of re-running per unit.
* **pinned wire protocol** — every queue and pipe message (payloads,
  results, heartbeats, ready marks) is encoded with
  :func:`repro.resilience.wire.dumps`, i.e. ``pickle.HIGHEST_PROTOCOL``,
  never the interpreter's default protocol.

Scheduling is **pull-based with work stealing**: pending
units sit in a supervisor-side overflow deque and whichever worker goes
idle first (its ``done`` message is the pull) is handed the next unit —
a straggler never strands queued work behind it.  The steal arbiter is
the supervisor rather than a lock in shared memory, deliberately: a
worker SIGKILLed while holding a shared-deque lock would poison every
sibling, the exact failure mode the per-worker channels exist to
prevent.

The workers outlive a run.  :class:`WorkerPool` has an
``open()`` → ``run(units, on_complete)`` → ``close()`` lifecycle, and
``run`` may be called any number of times on the same workers, so a
caller that runs many small sets of units (``repro serve`` runs one
unit per job) forks once, not once per set.  :func:`run_units` is one
run on a pool opened for it: the same supervisor loop, the same fault
rules.

``workers <= 1`` degrades :func:`run_units` to in-process sequential
execution with the same retry/quarantine semantics for unit
*exceptions* (in-process execution cannot survive a SIGKILL, by
definition), so callers need no separate code path and tests can force
the sequential engine.  A :class:`WorkerPool` always runs its units in
worker processes, one worker included.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import queue as queue_mod
import threading
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.log import get_logger
from repro.resilience.chaos import crashpoint
from repro.resilience.retry import Deadline, RetryPolicy
from repro.resilience.wire import dumps as _dumps
from repro.resilience.wire import loads as _loads

log = get_logger("pool")

#: Unit outcome statuses.
UNIT_OK = "ok"
UNIT_QUARANTINED = "quarantined"

#: Fault kinds recorded per failed attempt.
FAULT_CRASH = "worker-crashed"       # process died (e.g. SIGKILL, segfault)
FAULT_TIMEOUT = "unit-timeout"       # attempt exceeded unit_timeout
FAULT_STALL = "heartbeat-stall"      # heartbeats stopped; worker killed
FAULT_ERROR = "unit-exception"       # unit function raised


def exception_category(exc: "BaseException | type") -> str:
    """The structured category of an exception (or exception class).

    The fully qualified class name: stable across message changes and
    ``repr`` formatting, so callers dispatch on it instead of
    substring-matching fault text (which broke the moment a message was
    reworded).  Recorded per failed attempt in :class:`PoolFault.category`
    and surfaced via :meth:`UnitOutcome.error_category`.
    """
    cls = exc if isinstance(exc, type) else type(exc)
    return f"{cls.__module__}.{cls.__qualname__}"


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for a fault-isolated worker pool.

    Attributes:
        workers: number of worker processes (``<= 1`` runs sequentially
            in-process).
        unit_timeout: wall-clock seconds allowed per *attempt*; None
            disables the per-attempt deadline (heartbeat stall detection
            still guards against frozen workers).
        max_retries: how many times a failed unit is re-run before
            quarantine; the default 1 means "a unit that crashes twice is
            quarantined".
        retry_backoff: delay before the first retry, doubled per retry.
        retry_jitter: jitter fraction on retry delays (see
            :class:`~repro.resilience.retry.RetryPolicy`): each retry
            waits between 1x and (1+jitter)x the exponential delay, with
            the spread derived deterministically from
            ``(retry_seed, unit key, attempt)`` — simultaneous failures
            of different units no longer retry in lockstep, yet every
            run reproduces the same delays.  0.0 restores pure
            exponential backoff.
        retry_seed: seed for the deterministic jitter.
        heartbeat_interval: how often a busy worker emits a heartbeat.
        stall_timeout: seconds without a heartbeat after which a busy
            worker is declared hung and killed; None disables stall
            detection.
        report_sink: optional callable invoked with the final
            :class:`PoolReport` just before :func:`run_units` returns —
            the hook benchmarks use to read ``spawn_seconds`` (pool
            cold-start) out of engines that do not expose their pool
            reports.  Supervisor-side only; never pickled to workers.
    """

    workers: int = 2
    unit_timeout: Optional[float] = None
    max_retries: int = 1
    retry_backoff: float = 0.05
    retry_jitter: float = 0.5
    retry_seed: int = 0
    heartbeat_interval: float = 0.2
    stall_timeout: Optional[float] = 10.0
    report_sink: Optional[Callable[["PoolReport"], None]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def retry_policy(self) -> RetryPolicy:
        """The pool's retry schedule as a :class:`RetryPolicy` — the one
        source of truth for both the supervisor and the serial fallback."""
        return RetryPolicy(
            max_retries=self.max_retries,
            base_delay=self.retry_backoff,
            jitter=self.retry_jitter,
            seed=self.retry_seed,
        )


@dataclass(frozen=True)
class PoolFault:
    """One failed attempt of one unit — the pool's fault log entry.

    ``category`` is the structured exception category
    (:func:`exception_category`) for :data:`FAULT_ERROR` faults, and
    ``None`` for process-level faults (crash, timeout, stall), which have
    no exception object.
    """

    key: Any
    attempt: int
    kind: str
    detail: str
    category: Optional[str] = None

    def describe(self) -> str:
        return f"attempt {self.attempt} of unit {self.key!r}: {self.kind} ({self.detail})"


@dataclass(frozen=True)
class UnitOutcome:
    """The final fate of one unit after retries.

    Attributes:
        key: the unit's caller-chosen key.
        status: :data:`UNIT_OK` or :data:`UNIT_QUARANTINED`.
        value: the unit function's return value (None when quarantined).
        attempts: how many attempts were made in total.
        faults: the fault log entries for this unit's failed attempts —
            non-empty exactly when the unit was retried or quarantined.
        seconds: wall clock from first dispatch to final resolution.
    """

    key: Any
    status: str
    value: Any
    attempts: int
    faults: tuple[PoolFault, ...] = ()
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == UNIT_OK

    @property
    def quarantined(self) -> bool:
        return self.status == UNIT_QUARANTINED

    def cause(self) -> str:
        """Human-readable reason for a quarantine (last fault first)."""
        if not self.faults:
            return "no recorded faults"
        last = self.faults[-1]
        first_line = last.detail.strip().splitlines()[-1] if last.detail else ""
        return f"{last.kind} after {self.attempts} attempts: {first_line}"

    def error_category(self) -> Optional[str]:
        """The structured exception category of the final fault, if any.

        ``None`` when the unit succeeded, or when the final fault was a
        process-level one (crash/timeout/stall) rather than a raised
        exception.  Callers dispatch on this — never on the text of
        :meth:`cause`.
        """
        if not self.faults:
            return None
        return self.faults[-1].category


@dataclass(frozen=True)
class PoolReport:
    """Everything a pool run produced, keyed for deterministic merging.

    Attributes:
        outcomes: ``{key: UnitOutcome}`` — one entry per unit that ran to
            resolution, in submission order.  Together with *withdrawn*
            it covers every submitted unit exactly once.
        faults: every failed attempt across all units, in detection order
            (the only completion-order-dependent field; it is a log, not
            an input to any merge).
        workers: how many worker processes served the run (0 = serial).
        seconds: total wall clock of the pool run (for a
            :class:`WorkerPool`'s first run, counted from ``open()``).
        spawn_seconds: cold-start window — from ``open()`` until the
            last of the workers it spawned reported ready (process
            spawned, context unpickled); 0 for every later run on
            the same pool.  ``seconds - spawn_seconds``
            approximates the steady-state sweep time; benchmarks report
            both so process fan-out cost is never silently booked
            against the engine.
        withdrawn: keys of the units ``on_complete`` withdrew before they
            resolved, in submission order.  None of them has an outcome
            or is retried; faults of attempts that failed before the
            withdrawal stay in *faults*.
    """

    outcomes: dict
    faults: tuple[PoolFault, ...]
    workers: int
    seconds: float
    spawn_seconds: float = 0.0
    withdrawn: tuple = ()

    def value(self, key) -> Any:
        """The OK value for *key*; raises KeyError / ValueError otherwise."""
        outcome = self.outcomes[key]
        if not outcome.ok:
            raise ValueError(
                f"unit {key!r} was quarantined: {outcome.cause()}"
            )
        return outcome.value

    @property
    def quarantined(self) -> list:
        """Keys of quarantined units, in submission order."""
        return [k for k, o in self.outcomes.items() if o.quarantined]

    @property
    def retried(self) -> list:
        """Keys of units that needed more than one attempt but succeeded."""
        return [
            k for k, o in self.outcomes.items() if o.ok and o.attempts > 1
        ]

    def describe(self) -> str:
        """One-line summary for CLI diagnostics."""
        n = len(self.outcomes) + len(self.withdrawn)
        parts = [f"{n} units on {self.workers or 'no'} workers"]
        if self.withdrawn:
            parts.append(f"{len(self.withdrawn)} withdrawn")
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.faults:
            parts.append(f"{len(self.faults)} faults")
        return ", ".join(parts)


# -- worker side -------------------------------------------------------------
#
# Results travel over a dedicated pipe per worker, NOT a shared queue.
# A shared multiprocessing.Queue serializes writers through a lock in
# shared memory; a worker SIGKILLed while its feeder thread holds that
# lock leaves it locked forever, deadlocking every *other* worker's
# reports — one crash poisons the whole pool.  With one pipe per worker
# a dying worker can only tear its own channel, which the supervisor
# simply stops reading (crash detection resolves the unit).
#
# Every message on the queues and pipes is a wire.dumps() frame
# (pickle.HIGHEST_PROTOCOL) sent via send_bytes/recv_bytes — nothing on
# the pool's channels falls back to the default pickle protocol.  The
# one exception is the literal None shutdown sentinel on the task
# queues, which carries no payload to encode.

def _heartbeat_loop(conn, send_lock, worker_id, key, attempt, interval, stop):
    frame = _dumps(("beat", worker_id, key, attempt, None))
    while not stop.wait(interval):
        try:
            with send_lock:
                conn.send_bytes(frame)
        except Exception:  # channel torn down mid-shutdown: nothing to do
            return


def _worker_main(
    worker_id, task_queue, result_conn, fn, heartbeat_interval, context_bytes
):
    """Worker process body: pull units, run them, report, repeat.

    *context_bytes* is the shared context, wire-encoded once by the
    supervisor; it is decoded here exactly once, so every unit this
    worker runs sees the same context object and per-process memos keyed
    on it (warm caches) survive across units.
    """
    send_lock = threading.Lock()  # main thread vs heartbeat thread

    def send(message) -> None:
        try:
            with send_lock:
                result_conn.send_bytes(_dumps(message))
        except Exception:  # supervisor gone: die quietly with it
            pass

    context = None
    if context_bytes is not None:
        context = _loads(context_bytes)
    send(("ready", worker_id, None, 0, None))

    parent = multiprocessing.parent_process()
    while True:
        # Bounded waits so an orphaned worker notices its supervisor
        # died (e.g. kill -9 of the driver): blocking forever on the
        # task queue would leak the process *and* hold the inherited
        # stdout/stderr pipes open, hanging anything capturing them.
        try:
            item = task_queue.get(timeout=1.0)
        except queue_mod.Empty:
            if parent is not None and not parent.is_alive():
                return
            continue
        if item is None:
            return
        key, attempt, payload = _loads(item)
        crashpoint("worker.unit.start")
        send(("start", worker_id, key, attempt, None))
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(
                result_conn,
                send_lock,
                worker_id,
                key,
                attempt,
                heartbeat_interval,
                stop,
            ),
            daemon=True,
        )
        beat.start()
        try:
            if context is not None:
                value = fn(payload, context)
            else:
                value = fn(payload)
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            stop.set()
            beat.join()
            send(
                (
                    "error",
                    worker_id,
                    key,
                    attempt,
                    (exception_category(exc), traceback.format_exc()),
                )
            )
        else:
            stop.set()
            beat.join()
            crashpoint("worker.unit.finish")
            send(("done", worker_id, key, attempt, value))


# -- supervisor side ---------------------------------------------------------

class _Worker:
    """Supervisor-side handle of one worker process.

    Hang detection runs on two :class:`~repro.resilience.retry.Deadline`
    objects armed at dispatch: ``deadline`` bounds the whole attempt
    (``PoolConfig.unit_timeout``), ``stall`` is re-armed by every
    heartbeat (``PoolConfig.stall_timeout``) — the same clock vocabulary
    the retry policy and budget deadlines use.
    """

    __slots__ = (
        "id",
        "process",
        "queue",
        "conn",
        "conn_ok",
        "key",
        "attempt",
        "deadline",
        "stall",
    )

    def __init__(self, worker_id, process, task_queue, conn):
        self.id = worker_id
        self.process = process
        self.queue = task_queue
        self.conn = conn
        self.conn_ok = True
        self.key = None
        self.attempt = 0
        self.deadline = Deadline.never()
        self.stall = Deadline.never()

    @property
    def busy(self) -> bool:
        return self.key is not None

    def assign(self, key, attempt, payload, unit_timeout, stall_timeout) -> None:
        self.key = key
        self.attempt = attempt
        self.deadline = Deadline.after(unit_timeout)
        self.stall = Deadline.after(stall_timeout)
        self.queue.put(_dumps((key, attempt, payload)))

    def release(self) -> None:
        self.key = None
        self.attempt = 0

    def stop(self) -> tuple:
        """Release this worker's unit and SIGKILL the process; the
        released unit's ``(key, attempt)``."""
        key, attempt = self.key, self.attempt
        self.release()
        self.process.kill()
        self.process.join(1.0)
        return key, attempt

    def close_channel(self) -> None:
        self.conn_ok = False
        try:
            self.conn.close()
        except OSError:
            pass


class _Pending:
    """A unit attempt waiting for dispatch (initial or retry)."""

    __slots__ = ("key", "attempt", "payload", "not_before", "order")

    def __init__(self, key, attempt, payload, not_before, order):
        self.key = key
        self.attempt = attempt
        self.payload = payload
        self.not_before = not_before
        self.order = order


class WorkerPool:
    """N long-lived worker processes that run sets of units, fault-isolated.

    The lifecycle is ``open()`` → ``run(units, on_complete)`` → ``close()``,
    and ``run`` may be called again and again on the same workers: a
    caller that runs many small sets of units (the job server runs one
    unit per served job) pays the process spawn once, not once per set.
    :func:`run_units` is one run on a pool opened for it.  Every fault
    rule holds per run: a crashed, hung or timed-out attempt is retried
    on a respawned worker, a unit that keeps failing is quarantined, and
    ``on_complete`` may withdraw units.  A run keeps nothing per unit
    once it returns; the same key may recur in a later run.  A worker
    that died between runs is replaced when the next run starts, with no
    fault charged to that run's units.

    ``run`` and ``close`` take one lock, so a ``close`` from another
    thread waits for an in-flight run to return.  :attr:`spawned` counts
    worker processes started, :attr:`respawned` the replacements.
    """

    def __init__(self, fn, config: PoolConfig, context: Any = None):
        self._fn = fn
        self._config = config
        self._retry_policy = config.retry_policy()
        self._context_bytes = _dumps(context) if context is not None else None
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._next_worker_id = 0
        self._closed = False
        self.spawned = 0
        self.respawned = 0
        # Cold-start accounting for the first run: the ids of the workers
        # open() spawned and the instant each reported ready.  Replacement
        # workers are steady-state costs, not cold start.
        self._opened_at = 0.0
        self._initial_ids: set = set()
        self._ready_at: dict = {}
        self._reset()

    def _reset(self, units=(), on_complete=None, unit_timeout=None) -> None:
        """Start a run's per-unit bookkeeping afresh (empty by default)."""
        self._units = list(units)
        self._on_complete = on_complete
        self._unit_timeout = unit_timeout
        self._pending: list[_Pending] = []
        self._outcomes: dict = {}
        self._withdrawn: set = set()
        self._faults: list[PoolFault] = []
        self._unit_faults: dict = {}
        self._dispatched_at: dict = {}

    # -- lifecycle ----------------------------------------------------------
    def open(self, workers: Optional[int] = None) -> "WorkerPool":
        """Spawn *workers* processes (``config.workers`` by default)."""
        self._opened_at = time.monotonic()
        count = self._config.workers if workers is None else workers
        try:
            for _ in range(count):
                worker = self._spawn_worker()
                self._initial_ids.add(worker.id)
                self._workers.append(worker)
        except BaseException:
            self.close()
            raise
        return self

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        units: Sequence[tuple],
        on_complete: Optional[Callable[[UnitOutcome], Any]] = None,
        unit_timeout: Optional[float] = None,
    ) -> PoolReport:
        """Run every ``(key, payload)`` unit to resolution on this pool.

        Same contract as :func:`run_units`.  *unit_timeout* overrides
        ``config.unit_timeout`` for this run (None keeps the config's).
        The first run on a pool counts its wall clock and
        ``spawn_seconds`` from :meth:`open`; later runs start warm and
        report ``spawn_seconds == 0``.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("run() on a closed WorkerPool")
            _unit_keys(units)
            origin = (
                self._opened_at if self._initial_ids else time.monotonic()
            )
            if unit_timeout is None:
                unit_timeout = self._config.unit_timeout
            self._reset(units, on_complete, unit_timeout)
            for order, (key, payload) in enumerate(self._units):
                self._unit_faults[key] = []
                self._pending.append(_Pending(key, 1, payload, 0.0, order))
            try:
                for index, worker in enumerate(self._workers):
                    if not worker.process.is_alive():
                        self._replace(index)
                while self._unresolved():
                    self._dispatch()
                    self._drain(timeout=0.05)
                    self._check_health()
                return self._report(origin)
            except BaseException:
                # Abandoned mid-run: kill whatever still holds a unit of
                # it, so the next run starts on fresh workers.
                for worker in self._workers:
                    if worker.busy:
                        worker.stop()
                raise
            finally:
                self._reset()
                self._initial_ids.clear()
                self._ready_at.clear()

    def _report(self, origin: float) -> PoolReport:
        ready = [
            self._ready_at[i] for i in self._initial_ids if i in self._ready_at
        ]
        return PoolReport(
            outcomes={
                key: self._outcomes[key]
                for key, _ in self._units
                if key in self._outcomes
            },
            faults=tuple(self._faults),
            workers=self._config.workers,
            seconds=time.monotonic() - origin,
            spawn_seconds=max(ready) - origin if ready else 0.0,
            withdrawn=tuple(
                key for key, _ in self._units if key in self._withdrawn
            ),
        )

    def close(self) -> None:
        """Stop every worker; waits for an in-flight run.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown()
            self._workers = []

    def _unresolved(self) -> bool:
        """Whether some unit is still waiting for dispatch or running."""
        return bool(self._pending) or any(w.busy for w in self._workers)

    def _spawn_worker(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                send_conn,
                self._fn,
                self._config.heartbeat_interval,
                self._context_bytes,
            ),
            daemon=True,
        )
        process.start()
        self.spawned += 1
        # Drop the parent's copy of the write end so the worker process
        # is the channel's only writer and its death yields a clean EOF.
        send_conn.close()
        return _Worker(worker_id, process, task_queue, recv_conn)

    def _replace(self, index: int) -> None:
        """Retire the (dead or killed) worker in slot *index* and spawn
        its replacement."""
        worker = self._workers[index]
        worker.queue.close()
        worker.close_channel()
        self._workers[index] = self._spawn_worker()
        self.respawned += 1

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.queue.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 1.0
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
            worker.queue.close()
            worker.close_channel()

    # -- scheduling ---------------------------------------------------------
    def _dispatch(self) -> None:
        # self._pending is the shared overflow deque: every unit not yet
        # running sits here, supervisor-side.  The first idle worker
        # pulls the front of the ready list — its "done" message is the
        # pull request — so a straggler never strands queued work.
        # Nothing is preloaded into worker queues, so crash reassignment
        # never has to claw a unit back out of a dead worker's queue.
        if not self._pending:
            return
        now = time.monotonic()
        ready = [p for p in self._pending if p.not_before <= now]
        ready.sort(key=lambda p: (p.attempt, p.order))
        for worker in self._workers:
            if not ready:
                return
            if worker.busy or not worker.process.is_alive():
                continue
            unit = ready.pop(0)
            self._pending.remove(unit)
            self._dispatched_at.setdefault(unit.key, now)
            crashpoint("pool.dispatch")
            worker.assign(
                unit.key,
                unit.attempt,
                unit.payload,
                self._unit_timeout,
                self._config.stall_timeout,
            )

    def _drain(self, timeout: float) -> None:
        # Each worker reports over its own pipe: a worker SIGKILLed
        # mid-send can only tear its own channel. On EOF or a message
        # that fails to deserialize we retire that one channel — the
        # health checks then resolve the affected unit via timeout or
        # crash detection, so a dying worker degrades, never deadlocks.
        channels = {
            worker.conn: worker for worker in self._workers if worker.conn_ok
        }
        if not channels:
            time.sleep(timeout)
            return
        try:
            ready = multiprocessing.connection.wait(channels, timeout)
        except OSError:
            return
        for conn in ready:
            worker = channels[conn]
            while worker.conn_ok:
                try:
                    if not conn.poll():
                        break
                    message = _loads(conn.recv_bytes())
                except Exception:
                    worker.close_channel()
                    break
                self._handle(message)

    def _worker_for(self, worker_id) -> Optional[_Worker]:
        for worker in self._workers:
            if worker.id == worker_id:
                return worker
        return None

    def _handle(self, message) -> None:
        kind, worker_id, key, attempt, body = message
        if kind == "ready":
            # Sent once per worker process, once its context is
            # decoded and before any unit.  Only the workers open()
            # spawned count, and only until the first run returns.
            if worker_id in self._initial_ids:
                self._ready_at.setdefault(worker_id, time.monotonic())
            return
        worker = self._worker_for(worker_id)
        current = (
            worker is not None
            and worker.key == key
            and worker.attempt == attempt
        )
        if kind == "beat" or kind == "start":
            if current:
                worker.stall = Deadline.after(self._config.stall_timeout)
            return
        if not current or key in self._outcomes:
            return  # stale message from a superseded attempt
        worker.release()
        if kind == "done":
            self._finish(key, attempt, body)
        elif kind == "error":
            category, detail = body
            self._attempt_failed(
                key, attempt, FAULT_ERROR, detail, category=category
            )

    def _check_health(self) -> None:
        config = self._config
        now = time.monotonic()
        for index, worker in enumerate(self._workers):
            if not worker.process.is_alive():
                if worker.busy:
                    self._kill_and_fail(
                        index,
                        FAULT_CRASH,
                        f"worker process died (exitcode "
                        f"{worker.process.exitcode})",
                    )
                elif self._unresolved():
                    self._replace(index)
                continue
            if not worker.busy:
                continue
            if worker.deadline.expired(now):
                self._kill_and_fail(
                    index,
                    FAULT_TIMEOUT,
                    f"attempt exceeded unit timeout "
                    f"({self._unit_timeout:g}s)",
                )
            elif worker.stall.expired(now):
                self._kill_and_fail(
                    index,
                    FAULT_STALL,
                    f"no heartbeat for {config.stall_timeout:g}s",
                )

    def _kill_and_fail(self, index: int, kind: str, detail: str) -> None:
        """Fail the attempt of the worker in slot *index* and replace it
        (the kill is a no-op for a worker that already died)."""
        key, attempt = self._workers[index].stop()
        self._replace(index)
        self._attempt_failed(key, attempt, kind, detail)

    # -- outcome accounting -------------------------------------------------
    def _finish(self, key, attempt, value) -> None:
        crashpoint("pool.merge")
        self._resolve(
            UnitOutcome(
                key=key,
                status=UNIT_OK,
                value=value,
                attempts=attempt,
                faults=tuple(self._unit_faults[key]),
                seconds=time.monotonic() - self._dispatched_at[key],
            )
        )

    def _resolve(self, outcome: UnitOutcome) -> None:
        self._outcomes[outcome.key] = outcome
        for key in _withdrawals(self._on_complete, outcome):
            if key in self._unit_faults and key not in self._outcomes:
                self._withdrawn.add(key)
                self._pending[:] = [p for p in self._pending if p.key != key]
                for worker in self._workers:
                    if worker.key == key:
                        worker.stop()

    def _attempt_failed(
        self, key, attempt, kind, detail, category=None
    ) -> None:
        fault = PoolFault(
            key=key, attempt=attempt, kind=kind, detail=detail,
            category=category,
        )
        self._faults.append(fault)
        self._unit_faults[key].append(fault)
        config = self._config
        if attempt <= config.max_retries:
            delay = self._retry_policy.delay(key, attempt)
            log.debug(
                "unit %r attempt %d failed (%s); retrying in %.2fs",
                key, attempt, kind, delay,
            )
            payload = self._payload_for(key)
            self._pending.append(
                _Pending(
                    key,
                    attempt + 1,
                    payload,
                    time.monotonic() + delay,
                    self._order_for(key),
                )
            )
            return
        log.warning(
            "unit %r quarantined after %d attempt(s): %s",
            key, attempt, fault.kind,
        )
        self._resolve(
            UnitOutcome(
                key=key,
                status=UNIT_QUARANTINED,
                value=None,
                attempts=attempt,
                faults=tuple(self._unit_faults[key]),
                seconds=time.monotonic()
                - self._dispatched_at.get(key, time.monotonic()),
            )
        )

    def _payload_for(self, key):
        for unit_key, payload in self._units:
            if unit_key == key:
                return payload
        raise KeyError(key)

    def _order_for(self, key) -> int:
        for order, (unit_key, _) in enumerate(self._units):
            if unit_key == key:
                return order
        raise KeyError(key)


def _unit_keys(units) -> set:
    """The set of unit keys; raises ValueError on a duplicate key."""
    keys: set = set()
    for key, _ in units:
        if key in keys:
            raise ValueError(f"duplicate unit key {key!r}")
        keys.add(key)
    return keys


def _withdrawals(on_complete, outcome: UnitOutcome):
    """Report *outcome* to *on_complete*; the unit keys it withdraws."""
    if on_complete is None:
        return ()
    return on_complete(outcome) or ()


# -- serial fallback ---------------------------------------------------------

def _run_serial(fn, units, config, on_complete, context=None) -> PoolReport:
    keys = _unit_keys(units)
    outcomes: dict = {}
    withdrawn: set = set()
    faults: list[PoolFault] = []
    policy = config.retry_policy()
    started = time.monotonic()
    for key, payload in units:
        if key in withdrawn:
            continue
        unit_faults: list[PoolFault] = []
        unit_started = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                crashpoint("worker.unit.start")
                if context is not None:
                    value = fn(payload, context)
                else:
                    value = fn(payload)
                crashpoint("worker.unit.finish")
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                fault = PoolFault(
                    key=key,
                    attempt=attempt,
                    kind=FAULT_ERROR,
                    detail=traceback.format_exc(),
                    category=exception_category(exc),
                )
                faults.append(fault)
                unit_faults.append(fault)
                if attempt <= config.max_retries:
                    time.sleep(policy.delay(key, attempt))
                    continue
                outcome = UnitOutcome(
                    key=key,
                    status=UNIT_QUARANTINED,
                    value=None,
                    attempts=attempt,
                    faults=tuple(unit_faults),
                    seconds=time.monotonic() - unit_started,
                )
                break
            outcome = UnitOutcome(
                key=key,
                status=UNIT_OK,
                value=value,
                attempts=attempt,
                faults=tuple(unit_faults),
                seconds=time.monotonic() - unit_started,
            )
            break
        outcomes[key] = outcome
        withdrawn.update(
            k for k in _withdrawals(on_complete, outcome)
            if k in keys and k not in outcomes
        )
    return PoolReport(
        outcomes=outcomes,
        faults=tuple(faults),
        workers=0,
        seconds=time.monotonic() - started,
        withdrawn=tuple(key for key, _ in units if key in withdrawn),
    )


def run_units(
    fn: Callable[..., Any],
    units: Sequence[tuple],
    config: Optional[PoolConfig] = None,
    on_complete: Optional[Callable[[UnitOutcome], None]] = None,
    context: Any = None,
) -> PoolReport:
    """Run ``fn(payload)`` for every ``(key, payload)`` unit, fault-isolated.

    Args:
        fn: a **module-level** callable (must pickle by reference) mapping
            one payload to one picklable result.  It must be deterministic:
            retries assume re-running a unit reproduces its result.  When
            *context* is given it is called as ``fn(payload, context)``.
        units: ``(key, payload)`` pairs; keys must be unique and hashable,
            payloads picklable.  Submission order fixes the deterministic
            merge order of :attr:`PoolReport.outcomes`.
        config: pool tuning; ``PoolConfig()`` when omitted.  ``workers <=
            1`` runs sequentially in-process (same retry/quarantine
            handling for unit exceptions).
        on_complete: optional callback invoked in the supervisor process
            the moment each unit resolves (OK or quarantined) — the hook
            campaign checkpoints use to record finished units as workers
            finish, so an interrupt loses at most in-flight units.  Runs
            in completion order, which is scheduling-dependent; anything
            merged into results must use ``outcomes`` instead.  It may
            return an iterable of unit keys to **withdraw**: their
            pending attempts (first runs and retries alike) are dropped
            and never dispatched, and they are listed in
            :attr:`PoolReport.withdrawn`.  A worker running a withdrawn
            unit is killed at once (no fault, no retry) and replaced
            only while units remain.  Unknown or already resolved keys
            are ignored.
        context: optional shared object pickled **once per worker
            process** (vs once per unit) and passed as ``fn``'s second
            argument.  The E14 lever: heavyweight immutable inputs (the
            system under test, the model) ride here so per-unit payloads
            stay O(shard descriptor) and worker-side memos keyed on the
            context object (warm caches) hit across every unit the
            worker runs.

    Returns:
        A :class:`PoolReport` whose ``outcomes`` hold one entry per unit
        that was not withdrawn, in unit submission order (dict insertion
        order) regardless of completion order.

    Raises:
        KeyboardInterrupt: propagated after terminating all workers;
            units already resolved have had ``on_complete`` called.
    """
    config = config or PoolConfig()
    if not units:
        report = PoolReport(outcomes={}, faults=(), workers=0, seconds=0.0)
    elif config.workers <= 1:
        report = _run_serial(fn, units, config, on_complete, context)
    else:
        pool = WorkerPool(fn, config, context)
        with pool.open(min(config.workers, len(units))):
            report = pool.run(units, on_complete)
    if config.report_sink is not None:
        config.report_sink(report)
    return report


def with_workers(pool: Optional[PoolConfig], workers: int) -> PoolConfig:
    """*pool* (default :class:`PoolConfig`) running *workers* processes."""
    return replace(pool or PoolConfig(), workers=workers)


def pool_config_for(
    workers: Optional[int],
    unit_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> Optional[PoolConfig]:
    """Build a :class:`PoolConfig` from CLI-style optional knobs.

    Returns None when *workers* is None (sequential path requested), so
    call sites can do ``pool=pool_config_for(args.workers, ...)`` and
    branch on a single value.
    """
    if workers is None:
        return None
    config = PoolConfig(workers=workers)
    if unit_timeout is not None:
        config = replace(config, unit_timeout=unit_timeout)
    if max_retries is not None:
        config = replace(config, max_retries=max_retries)
    return config
