"""The asyncio verification job server behind ``repro serve``.

The server composes every resilience primitive PRs 1–5 built into one
long-running process whose headline property is surviving hostile
conditions:

* **bounded admission with explicit shedding** — every submission
  passes :class:`~repro.serve.admission.AdmissionController`; overload
  produces a structured ``REJECTED`` response, never an unbounded queue
  or a crash;
* **per-job deadlines** (:class:`~repro.resilience.retry.Deadline`) and
  **per-tenant quotas** (:class:`~repro.resilience.budget.Budget`);
* **dedupe by fingerprint** — a job identical to one queued, running,
  or already stored never runs twice;
* **durable exactly-once completion** — accepted jobs are recorded in a
  :class:`~repro.resilience.journal.CampaignJournal` ledger *before* they are
  acknowledged, and conclusive verdicts land in the content-addressed
  :class:`~repro.serve.store.VerdictStore` *before* the completion
  record.  The recovery rule at restart is therefore one line: a job
  with an acceptance record but no completion record re-runs, unless
  the store already holds its fingerprint — then it is marked complete
  without re-running;
* **fault isolation behind a circuit breaker** — jobs execute on the
  fault-isolated pool.  Each executor owns one long-lived one-worker
  :class:`~repro.resilience.pool.WorkerPool`, opened at start, so the
  workers persist across jobs and a job pays no process spawn; a worker
  that dies is replaced and its job retried as before.  Repeated
  quarantine trips the :class:`~repro.serve.breaker.CircuitBreaker` and
  jobs complete as structured UNKNOWN-degraded instead of cascading;
* **graceful drain** — SIGTERM/SIGINT stop admission, let in-flight
  jobs finish inside a grace deadline, sync the ledger and store, and
  exit :data:`~repro.exitcodes.EXIT_INTERRUPTED`; whatever the grace
  period did not cover is exactly what the ledger will recover.

Durability boundaries are bracketed by chaos crashpoints
(``serve.accept.*``, ``serve.complete.*``, plus the framing-level
``journal.append.*`` / ``serve.store.append.*``) so ``repro chaos
--serve`` can kill the process inside every window and assert the
recovery rule holds.

The wire protocol is newline-delimited JSON over TCP — one request
object per line, one response object per line.  Ops: ``submit``
(optionally ``wait``-ing for the verdict), ``result``, ``stream``,
``stats``, ``ping``, ``compact``, ``shutdown``.

The wire is treated as hostile (PR 9; :mod:`repro.serve.netchaos` is
the adversary):

* **streaming with resumable cursors** — ``stream`` subscribes to a
  job's event log (``accepted`` / ``running`` / ``partial`` / ``done``)
  as ``frame`` lines carrying a monotonically increasing ``seq``.  The
  log is append-only and reconstructible (from the ledger and store)
  after restart or in-memory eviction, so a client that reconnects with
  ``after = <last seq>`` resumes exactly where it left off — frames are
  delivered exactly once regardless of how many connections it took;
* **heartbeats** — an idle stream emits ``hb`` lines every
  ``heartbeat_interval`` seconds, so a client socket timeout above the
  interval cleanly separates "slow job" from "dead connection";
* **read/write deadlines that reap, not break** — a connection silent
  past ``idle_timeout``, or one whose send buffer stays full past
  ``write_timeout`` (a slow-loris or half-open peer), is closed and
  counted in ``counters["reaped"]``.  Client-side faults are *never*
  fed to the circuit breaker — the breaker tracks server-side execution
  health (pool quarantines) only, so a flapping client cannot degrade
  service for everyone else;
* **store GC** — with ``store_retain`` set, the verdict store compacts
  to the newest N records after completions (crashpoints
  ``serve.store.compact.*`` cover the rewrite seams); the ``compact``
  op forces a store+ledger compaction.  A completion record is written
  at most once per fingerprint even when a GC'd job is resubmitted and
  re-run, preserving the none-twice ledger invariant.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.exitcodes import EXIT_INTERRUPTED, EXIT_OK
from repro.log import get_logger
from repro.resilience.budget import Budget
from repro.resilience.crashpoint import crashpoint
from repro.resilience.journal import CampaignJournal
from repro.resilience.pool import PoolConfig, WorkerPool, run_units
from repro.resilience.retry import Deadline
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import InvalidJob, JobSpec, load_engine, run_job
from repro.serve.store import VerdictStore

log = get_logger("serve")

__all__ = ["ServeConfig", "VerifyServer", "run_serve"]

LEDGER_NAME = "server.journal"
STORE_NAME = "verdicts.store"
ENDPOINT_NAME = "endpoint"

#: How many finished job states stay queryable in memory; durable
#: results remain queryable forever through the store and ledger.
RETAIN_DONE = 512


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server process needs, as one picklable value."""

    dir: str
    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 16
    concurrency: int = 2
    isolation: bool = True
    job_timeout: Optional[float] = 60.0
    default_max_states: int = 200_000
    drain_grace: float = 10.0
    tenant_max_states: Optional[int] = None
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    pool_retries: int = 1
    stall_timeout: Optional[float] = 10.0
    #: Seconds between ``hb`` keepalives on an idle stream.
    heartbeat_interval: float = 5.0
    #: A connection whose send buffer stays full this long is reaped.
    write_timeout: Optional[float] = 10.0
    #: A connection silent this long between requests is reaped.
    idle_timeout: Optional[float] = 300.0
    #: Compact the verdict store down to this many newest records after
    #: completions (None: keep everything forever).
    store_retain: Optional[int] = None

    def tenant_budget(self) -> Optional[Budget]:
        if self.tenant_max_states is None:
            return None
        return Budget(max_states=self.tenant_max_states)


class _SlowClient(Exception):
    """A connection missed its write deadline; reap it, don't serve it.

    Deliberately *not* routed anywhere near the circuit breaker: a slow
    or half-open client is a client-side fault, and the breaker guards
    server-side execution health only.
    """


def _initial_events() -> list[dict]:
    # Seq 0 is always ``accepted`` — including for recovered jobs, so
    # the event log a resuming client sees after a server restart lines
    # up seq-for-seq with the log the dead incarnation was serving.
    return [{"type": "accepted"}]


@dataclass
class _JobState:
    """One accepted job's in-memory lifecycle."""

    spec: JobSpec
    fingerprint: str
    tenant: str
    deadline: Deadline
    status: str = "queued"  # queued | running | done
    recovered: bool = False
    response: Optional[dict] = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: Append-only event log streamed to subscribers; index == seq.
    events: list[dict] = field(default_factory=_initial_events)
    #: Pulsed (set + replaced) on every append to wake stream waiters.
    changed: asyncio.Event = field(default_factory=asyncio.Event)


class VerifyServer:
    """The server state machine; one instance per process."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._store: Optional[VerdictStore] = None
        self._ledger: Optional[CampaignJournal] = None
        self._admission = AdmissionController(
            config.queue_limit, config.tenant_budget()
        )
        self._breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown
        )
        self._jobs: dict[str, _JobState] = {}
        self._done_order: deque[str] = deque()
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._active = 0
        self._high_water = 0  # the most accepted-but-unfinished jobs seen
        self._draining = False
        self._stopping = asyncio.Event()
        self._exit_code = EXIT_OK
        self._server: Optional[asyncio.base_events.Server] = None
        self._executors: list[asyncio.Task] = []
        #: One pool per executor with isolation on, else empty.
        self._pools: list[WorkerPool] = []
        self.port: Optional[int] = None
        self.counters = {
            "submitted": 0,
            "accepted": 0,
            "completed": 0,
            "stored": 0,
            "store_hits": 0,
            "deduped": 0,
            "degraded": 0,
            "recovered": 0,
            "recovered_done": 0,
            "errors": 0,
            "streams": 0,
            "heartbeats": 0,
            "reaped": 0,
            "compactions": 0,
            "gc_evicted": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        cfg = self.config
        os.makedirs(cfg.dir, exist_ok=True)
        self._store = VerdictStore(os.path.join(cfg.dir, STORE_NAME))
        self._ledger = CampaignJournal.resume(
            os.path.join(cfg.dir, LEDGER_NAME)
        )
        self._recover()
        load_engine()
        if cfg.isolation:
            # Forked here, after the engine is loaded and before the
            # listening socket and any thread exist, so the first job
            # pays no spawn and no import.
            pool_cfg = PoolConfig(
                workers=1,
                max_retries=cfg.pool_retries,
                stall_timeout=cfg.stall_timeout,
            )
            self._pools = [
                WorkerPool(run_job, pool_cfg).open()
                for _ in range(max(1, cfg.concurrency))
            ]
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        endpoint = os.path.join(cfg.dir, ENDPOINT_NAME)
        with open(endpoint, "w", encoding="ascii") as fh:
            fh.write(f"{cfg.host}:{self.port}\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._executors = [
            asyncio.ensure_future(self._executor(pool))
            for pool in self._pools or [None] * max(1, cfg.concurrency)
        ]
        log.info(
            "serving on %s:%d (dir=%s, queue<=%d, %d recovered)",
            cfg.host,
            self.port,
            cfg.dir,
            cfg.queue_limit,
            self.counters["recovered"],
        )

    def _recover(self) -> None:
        """Apply the recovery rule to every accepted-but-unfinished job.

        The ledger replays in append order, so recovered jobs re-enter
        the queue in their original acceptance order.
        """
        assert self._ledger is not None and self._store is not None
        completed = self._ledger.completed
        for key in list(completed):
            if not key.startswith("job:"):
                continue
            fp = key[len("job:") :]
            if f"done:{fp}" in completed:
                continue
            if fp in self._store:
                # The verdict landed before the crash; only the
                # completion record is missing.  Repair it without
                # re-running — this is what makes completion
                # exactly-once across kill -9.
                crashpoint("serve.recover.done")
                self._ledger.record(f"done:{fp}", {"outcome": "stored",
                                                   "recovered": True})
                self.counters["recovered_done"] += 1
                continue
            accepted = completed[key]
            try:
                spec = JobSpec.from_dict(accepted.get("job"))
            except InvalidJob as exc:  # ledger from a newer/older version
                log.warning("dropping unrecoverable job %s: %s", fp, exc)
                self._ledger.record(
                    f"done:{fp}", {"outcome": "unrecoverable",
                                   "detail": str(exc)}
                )
                continue
            state = _JobState(
                spec=spec,
                fingerprint=fp,
                tenant=accepted.get("tenant", "default"),
                deadline=Deadline.after(self.config.job_timeout),
                recovered=True,
            )
            self._jobs[fp] = state
            self._active += 1
            self._high_water = max(self._high_water, self._active)
            self._queue.put_nowait(fp)
            self.counters["recovered"] += 1

    async def run_async(self) -> int:
        """Start, serve until drained, tear down; returns the exit code."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self._begin_drain, sig)
        try:
            await self._stopping.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(ValueError, RuntimeError):
                    loop.remove_signal_handler(sig)
            assert self._server is not None
            self._server.close()
            await self._server.wait_closed()
            for task in self._executors:
                task.cancel()
            await asyncio.gather(*self._executors, return_exceptions=True)
            # A cancelled executor's run goes on in its thread; close()
            # waits for it, so no pool closes under its supervisor loop.
            for pool in self._pools:
                await asyncio.to_thread(pool.close)
            crashpoint("serve.drain.sync")
            assert self._ledger is not None and self._store is not None
            self._ledger.sync()
            self._ledger.close()
            self._store.close()
        log.info("drained; exiting %d", self._exit_code)
        return self._exit_code

    def _begin_drain(self, signum: Optional[int]) -> None:
        """Stop admitting; finish in-flight work inside the grace window."""
        if self._draining:
            return
        self._draining = True
        self._admission.draining = True
        self._exit_code = (
            EXIT_INTERRUPTED if signum is not None else EXIT_OK
        )
        log.info(
            "drain started (%s): %d job(s) in flight",
            signal.Signals(signum).name if signum is not None else "shutdown",
            self._active,
        )
        asyncio.ensure_future(self._finish_drain())

    async def _finish_drain(self) -> None:
        grace = Deadline.after(self.config.drain_grace)
        while self._active and not grace.expired():
            await asyncio.sleep(0.02)
        if self._active:
            # Whatever the grace window did not cover is exactly what
            # the ledger recovers at the next start: accepted records
            # exist, completion records do not.
            log.warning(
                "drain grace expired with %d job(s) still pending; "
                "they will resume on restart",
                self._active,
            )
        self._stopping.set()

    # -- connection handling ----------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.config.idle_timeout
                    )
                except (TimeoutError, asyncio.TimeoutError):
                    # Silent past the idle window: a half-open or
                    # abandoned connection.  Reap it — and never count
                    # it against the breaker (client-side fault).
                    self.counters["reaped"] += 1
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer, {"status": "error", "error": "line-too-long"}
                    )
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError:
                    await self._send(
                        writer, {"status": "error", "error": "bad-request"}
                    )
                    continue
                try:
                    if request.get("op") == "stream":
                        if not await self._handle_stream(request, writer):
                            break
                        continue
                    response = await self._dispatch(request)
                except asyncio.CancelledError:
                    raise
                except (_SlowClient, ConnectionResetError, BrokenPipeError):
                    raise
                except Exception:
                    # The no-crash guarantee: any internal failure is a
                    # structured error response, never a dead server.
                    self.counters["errors"] += 1
                    log.exception("request failed")
                    response = {"status": "error", "error": "internal"}
                await self._send(writer, response)
        except _SlowClient:
            self.counters["reaped"] += 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await asyncio.wait_for(writer.wait_closed(), timeout=5.0)

    async def _send(self, writer, obj: dict) -> None:
        """Write one response line, bounded by the write deadline.

        ``drain()`` only blocks once the transport's buffer is full —
        i.e. when the peer has stopped reading.  A drain that cannot
        finish inside ``write_timeout`` means a slow-loris or half-open
        client; :class:`_SlowClient` tells the connection handler to
        reap it.
        """
        writer.write(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
        try:
            await asyncio.wait_for(
                writer.drain(), timeout=self.config.write_timeout
            )
        except (TimeoutError, asyncio.TimeoutError):
            raise _SlowClient() from None

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"status": "ok", "draining": self._draining}
        if op == "stats":
            return {"status": "ok", "stats": self.stats()}
        if op == "submit":
            return await self._handle_submit(request)
        if op == "result":
            return self._handle_result(request)
        if op == "compact":
            return self._handle_compact(request)
        if op == "shutdown":
            self._begin_drain(None)
            return {"status": "ok", "draining": True}
        return {"status": "error", "error": f"unknown op {op!r}"}

    # -- streaming ---------------------------------------------------------
    def _event(self, state: _JobState, event: dict) -> None:
        """Append to the job's event log and wake every stream waiter."""
        state.events.append(event)
        waiters = state.changed
        state.changed = asyncio.Event()
        waiters.set()

    def _synth_events(self, fingerprint: str) -> Optional[list[dict]]:
        """Reconstruct a finished job's event log from durable state.

        Used when the in-memory state is gone — server restart or
        RETAIN_DONE eviction.  The synthetic log has the same shape and
        seq numbering a live subscriber saw (``accepted``, ``running``,
        [``partial``,] ``done``), so a resuming cursor still lands on
        exactly the frames it has not consumed yet.
        """
        assert self._store is not None and self._ledger is not None
        stored = self._store.get(fingerprint)
        if stored is not None:
            return [
                {"type": "accepted"},
                {"type": "running"},
                {"type": "partial", "stored": True},
                {
                    "type": "done",
                    "response": {
                        "status": "done",
                        "id": fingerprint,
                        "result": stored["record"],
                    },
                },
            ]
        done = self._ledger.completed.get(f"done:{fingerprint}")
        if done is not None:
            return [
                {"type": "accepted"},
                {"type": "running"},
                {
                    "type": "done",
                    "response": {
                        "status": "done",
                        "id": fingerprint,
                        "stored": False,
                        "outcome": done.get("outcome"),
                    },
                },
            ]
        return None

    async def _handle_stream(self, request: dict, writer) -> bool:
        """Serve one ``stream`` subscription; True keeps the connection.

        Replays every event with ``seq > after`` in order, then follows
        the live log, emitting ``hb`` keepalives while nothing happens.
        Ends (returning to the request loop) after the ``done`` frame.
        Returns False only when the server began stopping mid-stream —
        the client's reconnect will be answered by the next incarnation.
        """
        fingerprint = request.get("id")
        after = request.get("after", -1)
        if (
            not isinstance(fingerprint, str)
            or isinstance(after, bool)
            or not isinstance(after, int)
            or after < -1
        ):
            await self._send(
                writer,
                {
                    "status": "error",
                    "error": "stream needs a string id and integer after >= -1",
                },
            )
            return True
        self.counters["streams"] += 1
        cursor = after
        while not self._stopping.is_set():
            state = self._jobs.get(fingerprint)
            if state is not None:
                events: list[dict] = state.events
                changed: Optional[asyncio.Event] = state.changed
            else:
                synthetic = self._synth_events(fingerprint)
                if synthetic is None:
                    await self._send(
                        writer, {"status": "unknown", "id": fingerprint}
                    )
                    return True
                events = synthetic
                changed = None
            while cursor + 1 < len(events):
                cursor += 1
                await self._send(
                    writer,
                    {
                        "status": "frame",
                        "id": fingerprint,
                        "seq": cursor,
                        "event": events[cursor],
                    },
                )
            if (
                events
                and events[-1].get("type") == "done"
                and cursor == len(events) - 1
            ):
                return True
            if changed is None:
                # Synthetic logs always end in done; only a cursor past
                # the synthetic tail lands here.
                await self._send(
                    writer, {"status": "unknown", "id": fingerprint}
                )
                return True
            stop_wait = asyncio.ensure_future(self._stopping.wait())
            event_wait = asyncio.ensure_future(changed.wait())
            finished, pending = await asyncio.wait(
                {stop_wait, event_wait},
                timeout=self.config.heartbeat_interval,
                return_when=asyncio.FIRST_COMPLETED,
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            if not finished:
                self.counters["heartbeats"] += 1
                await self._send(writer, {"status": "hb", "id": fingerprint})
        return False

    # -- submission --------------------------------------------------------
    async def _handle_submit(self, request: dict) -> dict:
        self.counters["submitted"] += 1
        tenant = request.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            admission = self._admission.reject_invalid(
                "tenant must be a non-empty string of <= 64 chars"
            )
            return self._rejected(admission)
        try:
            spec = JobSpec.from_dict(request.get("job"))
        except InvalidJob as exc:
            return self._rejected(self._admission.reject_invalid(str(exc)))
        fingerprint = spec.fingerprint()
        assert self._store is not None and self._ledger is not None
        stored = self._store.get(fingerprint)
        if stored is not None:
            self.counters["store_hits"] += 1
            return {
                "status": "done",
                "id": fingerprint,
                "cached": True,
                "result": stored["record"],
            }
        state = self._jobs.get(fingerprint)
        if state is not None and state.status != "done":
            self.counters["deduped"] += 1
            if request.get("wait"):
                return await self._await_result(state)
            return {"status": "accepted", "id": fingerprint,
                    "duplicate": True}
        admission = self._admission.decide(tenant, self._active)
        if not admission.accepted:
            return self._rejected(admission)
        state = _JobState(
            spec=spec,
            fingerprint=fingerprint,
            tenant=tenant,
            deadline=Deadline.after(self.config.job_timeout),
        )
        self._jobs[fingerprint] = state
        self._active += 1
        self._high_water = max(self._high_water, self._active)
        # Durable acceptance *before* the client hears ACCEPTED: once
        # acknowledged, a kill -9 cannot lose the job.
        crashpoint("serve.accept.pre")
        self._ledger.record(
            f"job:{fingerprint}",
            {"job": spec.canonical(), "tenant": tenant},
        )
        crashpoint("serve.accept.post")
        self._queue.put_nowait(fingerprint)
        self.counters["accepted"] += 1
        if request.get("wait"):
            return await self._await_result(state)
        return {"status": "accepted", "id": fingerprint}

    @staticmethod
    def _rejected(admission) -> dict:
        return {
            "status": "rejected",
            "reason": admission.reason,
            "detail": admission.detail,
        }

    @staticmethod
    async def _await_result(state: _JobState) -> dict:
        await state.done_event.wait()
        assert state.response is not None
        return dict(state.response)

    def _handle_result(self, request: dict) -> dict:
        fingerprint = request.get("id")
        if not isinstance(fingerprint, str):
            return {"status": "error", "error": "result needs a string id"}
        assert self._store is not None and self._ledger is not None
        stored = self._store.get(fingerprint)
        if stored is not None:
            return {
                "status": "done",
                "id": fingerprint,
                "cached": True,
                "result": stored["record"],
            }
        state = self._jobs.get(fingerprint)
        if state is not None:
            if state.status == "done":
                assert state.response is not None
                return dict(state.response)
            return {"status": "pending", "id": fingerprint,
                    "phase": state.status}
        done = self._ledger.completed.get(f"done:{fingerprint}")
        if done is not None:
            return {
                "status": "done",
                "id": fingerprint,
                "stored": False,
                "outcome": done.get("outcome"),
            }
        if f"job:{fingerprint}" in self._ledger.completed:
            return {"status": "pending", "id": fingerprint, "phase": "queued"}
        return {"status": "unknown", "id": fingerprint}

    # -- execution ---------------------------------------------------------
    async def _executor(self, pool: Optional[WorkerPool]) -> None:
        while True:
            fingerprint = await self._queue.get()
            state = self._jobs.get(fingerprint)
            if state is None or state.status != "queued":
                continue
            try:
                await self._run_one(state, pool)
            except asyncio.CancelledError:
                raise
            except Exception:
                self.counters["errors"] += 1
                log.exception("job %s failed internally", fingerprint)
                self._complete(
                    state,
                    outcome="error",
                    response={
                        "status": "done",
                        "id": fingerprint,
                        "verdict": "unknown",
                        "degraded": True,
                        "reason": "internal-error",
                    },
                )

    async def _run_one(
        self, state: _JobState, pool: Optional[WorkerPool]
    ) -> None:
        state.status = "running"
        self._event(state, {"type": "running"})
        fingerprint = state.fingerprint
        if state.deadline.expired():
            self._complete(
                state,
                outcome="deadline-expired",
                response={
                    "status": "done",
                    "id": fingerprint,
                    "verdict": "unknown",
                    "reason": "deadline-expired",
                },
            )
            return
        if not self._breaker.allow():
            self.counters["degraded"] += 1
            self._complete(
                state,
                outcome="degraded",
                response={
                    "status": "done",
                    "id": fingerprint,
                    "verdict": "unknown",
                    "degraded": True,
                    "reason": "breaker-open",
                },
            )
            return
        cfg = self.config
        payload = {
            "job": state.spec.canonical(),
            "budget": {
                "max_states": state.spec.max_states or cfg.default_max_states,
                "max_seconds": state.deadline.remaining(),
            },
        }
        units = [(fingerprint, payload)]
        if pool is None:
            report = await asyncio.to_thread(
                run_units, run_job, units,
                PoolConfig(workers=0, max_retries=cfg.pool_retries),
            )
        else:
            report = await asyncio.to_thread(
                pool.run, units, None, state.deadline.remaining()
            )
        outcome = report.outcomes[fingerprint]
        if outcome.quarantined:
            self._breaker.record_failure()
            self.counters["degraded"] += 1
            self._complete(
                state,
                outcome="quarantined",
                response={
                    "status": "done",
                    "id": fingerprint,
                    "verdict": "unknown",
                    "degraded": True,
                    "reason": "quarantined",
                    "cause": outcome.cause(),
                },
            )
            return
        self._breaker.record_success()
        result = outcome.value
        self._admission.charge(state.tenant, int(result.get("cost", 0)))
        if not result["conclusive"]:
            self._complete(
                state,
                outcome="inconclusive",
                response={
                    "status": "done",
                    "id": fingerprint,
                    "verdict": "unknown",
                    "reason": "budget",
                    "limit": result.get("limit"),
                    "detail": result.get("detail", ""),
                },
            )
            return
        record = result["record"]
        assert self._store is not None
        # Verdict first, completion record second: a kill in the gap
        # leaves a stored verdict the recovery rule repairs into a
        # completion — never a completion without its verdict.
        self._store.put(fingerprint, state.spec.canonical(), record)
        self.counters["stored"] += 1
        self._event(state, {"type": "partial", "stored": True})
        crashpoint("serve.complete.gap")
        self._complete(
            state,
            outcome="stored",
            response={
                "status": "done",
                "id": fingerprint,
                "result": record,
            },
        )

    def _complete(self, state: _JobState, outcome: str, response: dict) -> None:
        assert self._ledger is not None
        state.status = "done"
        state.response = response
        # At most one completion record per fingerprint, ever: a job
        # whose stored verdict was GC'd and that was then resubmitted
        # and re-run already has its done record from the first life —
        # writing a second would break the none-twice ledger invariant.
        if f"done:{state.fingerprint}" not in self._ledger.completed:
            self._ledger.record(
                f"done:{state.fingerprint}", {"outcome": outcome}
            )
        crashpoint("serve.complete.post")
        self._event(state, {"type": "done", "response": dict(response)})
        self._active -= 1
        self.counters["completed"] += 1
        state.done_event.set()
        self._done_order.append(state.fingerprint)
        while len(self._done_order) > RETAIN_DONE:
            old = self._done_order.popleft()
            old_state = self._jobs.get(old)
            if old_state is not None and old_state.status == "done":
                del self._jobs[old]
        self._maybe_gc()

    def _maybe_gc(self) -> None:
        """Compact the store down to ``store_retain`` newest records."""
        retain = self.config.store_retain
        assert self._store is not None
        if retain is None or len(self._store) <= retain:
            return
        evicted = self._store.compact(retain=retain)
        self.counters["compactions"] += 1
        self.counters["gc_evicted"] += evicted

    def _handle_compact(self, request: dict) -> dict:
        """Admin op: force a store + ledger compaction now."""
        retain = request.get("retain", self.config.store_retain)
        if retain is not None and (
            isinstance(retain, bool) or not isinstance(retain, int)
            or retain < 0
        ):
            return {
                "status": "error",
                "error": "retain must be a non-negative integer",
            }
        assert self._store is not None and self._ledger is not None
        evicted = self._store.compact(retain=retain)
        self._ledger.compact()
        self.counters["compactions"] += 1
        self.counters["gc_evicted"] += evicted
        return {
            "status": "ok",
            "evicted": evicted,
            "store_records": len(self._store),
        }

    # -- inspection --------------------------------------------------------
    def stats(self) -> dict:
        assert self._store is not None
        return {
            "draining": self._draining,
            "active": self._active,
            "high_water": self._high_water,
            "queued": self._queue.qsize(),
            "store_records": len(self._store),
            "counters": dict(
                self.counters,
                pool_spawned=sum(pool.spawned for pool in self._pools),
                pool_respawned=sum(pool.respawned for pool in self._pools),
            ),
            "admission": self._admission.stats(),
            "breaker": self._breaker.describe(),
        }


def run_serve(config: ServeConfig) -> int:
    """Run one server process to completion; returns its exit code."""
    return asyncio.run(VerifyServer(config).run_async())
