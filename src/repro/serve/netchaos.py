"""Deterministic fault-injecting TCP proxy and the network chaos sweep.

The disk seams got their adversary in PR 5/6 (``crashpoint`` + kill -9
sweeps); this module is the same idea for the wire.  A
:class:`NetChaosProxy` sits between a client and a real ``repro serve``
process and injects scheduled faults:

========== ==========================================================
kind        behaviour at the scheduled phase
========== ==========================================================
latency     hold the connection (or a chunk) for ``arg`` seconds, then
            proceed normally — the only non-fatal fault
drop        close both sides cleanly; the peer sees EOF mid-exchange
reset       close the client side with SO_LINGER 0 → TCP RST
truncate    forward roughly half of the in-flight chunk, then close —
            the peer sees a torn frame (bytes without the delimiter)
loris       dribble a few bytes of the chunk with long pauses, then
            close — a slow-loris partial write
partition   refuse (RST) the triggering connection and every later one
            for ``arg`` seconds — a hard partition with a timed heal
========== ==========================================================

Faults fire at a protocol *phase* of the proxied connection:
``connect`` (before any byte flows), ``request`` (first client→server
bytes), ``response`` (first server→client bytes), or ``stream``
(server→client bytes after at least one complete line was already
delivered — i.e. mid-subscription on a ``stream`` op).

Scheduling is deterministic: a :class:`FaultSchedule` is a pure
function of the connection index (1-based, in accept order) plus an
optional seeded probabilistic profile for loss/jitter benchmarks —
randomness comes from sha256 over ``(seed, label, index)``, exactly the
:class:`~repro.resilience.retry.RetryPolicy` trick, so a sweep replays
identically from its seed.  The proxy never calls ``random``.

:func:`netchaos_sweep` is the harness behind ``repro chaos --net``: for
every (fault kind × phase) cell it boots a fresh server, wraps it in a
proxy armed with that fault, drives the standard battery through a
:class:`~repro.serve.client.ResilientClient`, resubmits the battery to
prove dedupe answers it without re-execution, then drains the server
and checks the store with :func:`repro.serve.chaos.check_store`
against a clean-network baseline: none lost, none twice,
byte-identical stores.
"""

from __future__ import annotations

import hashlib
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.resilience.retry import Deadline, RetryPolicy
from repro.serve.chaos import (
    _start_server,
    _stop,
    check_store,
    default_battery,
    store_state,
)
from repro.serve.client import ResilientClient, ServerGone, wait_for_endpoint

__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "NetChaosProxy",
    "NetChaosResult",
    "NetChaosSweep",
    "NetFault",
    "PHASES",
    "default_matrix",
    "netchaos_sweep",
]

FAULT_LATENCY = "latency"
FAULT_DROP = "drop"
FAULT_RESET = "reset"
FAULT_TRUNCATE = "truncate"
FAULT_LORIS = "loris"
FAULT_PARTITION = "partition"
FAULT_KINDS = (
    FAULT_LATENCY,
    FAULT_DROP,
    FAULT_RESET,
    FAULT_TRUNCATE,
    FAULT_LORIS,
    FAULT_PARTITION,
)

PHASE_CONNECT = "connect"
PHASE_REQUEST = "request"
PHASE_RESPONSE = "response"
PHASE_STREAM = "stream"
PHASES = (PHASE_CONNECT, PHASE_REQUEST, PHASE_RESPONSE, PHASE_STREAM)


@dataclass(frozen=True)
class NetFault:
    """One scheduled fault: *kind* fired at *phase*.

    *arg* is the kind's knob: seconds of delay for ``latency``, seconds
    until heal for ``partition``; ignored elsewhere.
    """

    kind: str
    phase: str = PHASE_CONNECT
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.phase not in PHASES:
            raise ValueError(f"unknown fault phase {self.phase!r}")

    def describe(self) -> str:
        return f"{self.kind}@{self.phase}"


def _hash01(seed: int, label: str, index: int) -> float:
    """Deterministic uniform-ish [0, 1) from (seed, label, index)."""
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultSchedule:
    """Pure function: connection index -> fault (or None).

    Two layers, consulted in order:

    * *planned* — explicit ``{index: NetFault}`` entries, for sweeps
      that arm one fault on a window of connections;
    * a seeded probabilistic profile — each connection independently
      suffers a connection-killing fault with probability *loss*
      (kind and phase drawn deterministically from the hash), and/or a
      connect-time latency uniform in ``[0, jitter)`` seconds.  This is
      the E18 "1% loss / 50 ms jitter" knob.
    """

    _LOSS_KINDS = (FAULT_DROP, FAULT_RESET, FAULT_TRUNCATE)
    _LOSS_PHASES = (PHASE_REQUEST, PHASE_RESPONSE)

    def __init__(
        self,
        planned: Optional[dict[int, NetFault]] = None,
        seed: int = 0,
        loss: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if jitter < 0.0:
            raise ValueError("jitter must be >= 0")
        self.planned = dict(planned or {})
        self.seed = seed
        self.loss = loss
        self.jitter = jitter

    @classmethod
    def window(
        cls, fault: NetFault, first: int = 1, count: int = 6
    ) -> "FaultSchedule":
        """Arm *fault* on connections ``first .. first+count-1``.

        A window (rather than a single index) guarantees the fault
        actually fires on a connection that *reaches* its phase — a
        submit connection never reaches ``stream``, so arming a stream
        fault only on connection 1 could inject nothing.
        """
        return cls(planned={first + i: fault for i in range(count)})

    def fault_for(self, index: int) -> Optional[NetFault]:
        if index in self.planned:
            return self.planned[index]
        if self.loss and _hash01(self.seed, "loss", index) < self.loss:
            kind = self._LOSS_KINDS[
                int(_hash01(self.seed, "kind", index) * len(self._LOSS_KINDS))
            ]
            phase = self._LOSS_PHASES[
                int(
                    _hash01(self.seed, "phase", index)
                    * len(self._LOSS_PHASES)
                )
            ]
            return NetFault(kind, phase)
        if self.jitter:
            delay = self.jitter * _hash01(self.seed, "delay", index)
            return NetFault(FAULT_LATENCY, PHASE_CONNECT, delay)
        return None


def _reset_close(sock: socket.socket) -> None:
    """Close *sock* so the peer sees TCP RST, not orderly FIN.

    The ``SHUT_RD`` first is local-only (no packet): it wakes any pump
    thread blocked in ``recv`` on this socket, whose in-flight syscall
    would otherwise pin the file description open and defer the RST
    until its own timeout.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _quiet_close(sock: socket.socket) -> None:
    """Close *sock* with an orderly FIN, waking any blocked reader.

    A bare ``close()`` while another thread sits in ``recv`` on the same
    socket takes effect only after that syscall returns — the peer would
    see nothing until a timeout.  ``shutdown`` acts immediately.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected (e.g. the listener) — close alone is fine
    try:
        sock.close()
    except OSError:
        pass


class _ConnPair:
    """Both sockets of one proxied connection, killable from any pump."""

    def __init__(self, client: socket.socket, upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self.fault_tripped = False
        self.lines_down = 0  # complete server->client lines forwarded
        self.lock = threading.Lock()

    def kill(self, reset_client: bool = False) -> None:
        if reset_client:
            _reset_close(self.client)
        else:
            _quiet_close(self.client)
        _quiet_close(self.upstream)


class NetChaosProxy:
    """A TCP proxy for one server, injecting scheduled faults.

    Threaded and in-process: ``start()`` binds an ephemeral port (the
    ``endpoint`` property) and accepts in a daemon thread; each proxied
    connection gets two pump threads moving bytes with ``sendall``.
    ``injected`` counts fired faults by ``kind@phase`` and
    ``connections`` counts accepts — both for assertions in tests and
    sweep reports.  Use as a context manager.
    """

    #: Pause between dribbled bytes in a slow-loris fault, and the cap
    #: on dribbled bytes, keeping the fault slow but the test bounded.
    LORIS_DELAY = 0.05
    LORIS_BYTES = 4

    def __init__(
        self,
        target_host: str,
        target_port: int,
        schedule: Optional[FaultSchedule] = None,
        host: str = "127.0.0.1",
        connect_timeout: float = 10.0,
        io_timeout: float = 120.0,
    ) -> None:
        self.target = (target_host, target_port)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.host = host
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.injected: Counter = Counter()
        self.connections = 0
        self._listener: Optional[socket.socket] = None
        self._port = 0
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._partition_until = 0.0
        self._lock = threading.Lock()
        self._pairs: set[_ConnPair] = set()

    # -- lifecycle ---------------------------------------------------------
    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self._port)

    def start(self) -> "NetChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="netchaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            _quiet_close(self._listener)
        with self._lock:
            pairs = list(self._pairs)
        for pair in pairs:
            pair.kill()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "NetChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept / fault dispatch ------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
                index = self.connections
                partitioned = time.monotonic() < self._partition_until
            if partitioned:
                self.injected["partition.refused"] += 1
                _reset_close(client)
                continue
            fault = self.schedule.fault_for(index)
            threading.Thread(
                target=self._serve_conn,
                args=(client, fault),
                name=f"netchaos-conn-{index}",
                daemon=True,
            ).start()

    def _serve_conn(self, client: socket.socket, fault: Optional[NetFault]) -> None:
        client.settimeout(self.io_timeout)
        if fault is not None and fault.kind == FAULT_PARTITION:
            self.injected[fault.describe()] += 1
            with self._lock:
                self._partition_until = time.monotonic() + (fault.arg or 0.5)
            _reset_close(client)
            return
        if fault is not None and fault.phase == PHASE_CONNECT:
            self.injected[fault.describe()] += 1
            if fault.kind == FAULT_LATENCY:
                time.sleep(fault.arg)
                fault = None  # delayed, then proceeds normally
            elif fault.kind == FAULT_RESET:
                _reset_close(client)
                return
            else:  # drop / truncate / loris: nothing in flight to mangle
                _quiet_close(client)
                return
        try:
            upstream = socket.create_connection(
                self.target, timeout=self.connect_timeout
            )
        except OSError:
            _reset_close(client)
            return
        upstream.settimeout(self.io_timeout)
        pair = _ConnPair(client, upstream)
        with self._lock:
            self._pairs.add(pair)
        up = threading.Thread(
            target=self._pump,
            args=(pair, client, upstream, fault, False),
            daemon=True,
        )
        up.start()
        try:
            self._pump(pair, upstream, client, fault, True)
        finally:
            up.join(timeout=self.io_timeout)
            pair.kill()
            with self._lock:
                self._pairs.discard(pair)

    # -- byte pumps --------------------------------------------------------
    def _pump(
        self,
        pair: _ConnPair,
        src: socket.socket,
        dst: socket.socket,
        fault: Optional[NetFault],
        downstream: bool,
    ) -> None:
        """Move bytes src -> dst, applying *fault* when its phase arrives."""
        while True:
            try:
                chunk = src.recv(65536)
            except OSError:
                pair.kill()
                return
            if not chunk:
                # Half-close: propagate EOF, let the other pump drain.
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pair.kill()
                return
            if fault is not None:
                tripped_here = False
                with pair.lock:
                    if pair.fault_tripped:
                        fault = None  # the other pump already fired it
                    elif self._phase(pair, downstream) == fault.phase:
                        pair.fault_tripped = True
                        tripped_here = True
                if fault is not None and tripped_here:
                    self.injected[fault.describe()] += 1
                    if not self._apply(fault, pair, dst, chunk):
                        return
                    fault = None
                    continue
            try:
                dst.sendall(chunk)
            except OSError:
                pair.kill()
                return
            if downstream:
                with pair.lock:
                    pair.lines_down += chunk.count(b"\n")

    def _phase(self, pair: _ConnPair, downstream: bool) -> str:
        if not downstream:
            return PHASE_REQUEST
        return PHASE_STREAM if pair.lines_down >= 1 else PHASE_RESPONSE

    def _apply(
        self,
        fault: NetFault,
        pair: _ConnPair,
        dst: socket.socket,
        chunk: bytes,
    ) -> bool:
        """Inject *fault* on *chunk*; False when the connection is dead."""
        if fault.kind == FAULT_LATENCY:
            time.sleep(fault.arg or 0.05)
            try:
                dst.sendall(chunk)
            except OSError:
                pair.kill()
                return False
            if dst is pair.client:
                with pair.lock:
                    pair.lines_down += chunk.count(b"\n")
            return True
        if fault.kind == FAULT_DROP:
            pair.kill()
            return False
        if fault.kind == FAULT_RESET:
            pair.kill(reset_client=True)
            return False
        if fault.kind == FAULT_TRUNCATE:
            keep = max(1, len(chunk) // 2)
            try:
                dst.sendall(chunk[:keep])
            except OSError:
                pass
            pair.kill()
            return False
        if fault.kind == FAULT_LORIS:
            for byte in chunk[: self.LORIS_BYTES]:
                try:
                    dst.sendall(bytes([byte]))
                except OSError:
                    break
                time.sleep(self.LORIS_DELAY)
            pair.kill()
            return False
        raise AssertionError(f"unhandled fault kind {fault.kind!r}")


# ---------------------------------------------------------------------------
# The sweep harness behind `repro chaos --net`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetChaosResult:
    """Outcome of one (fault kind, phase) cell."""

    fault: str
    phase: str
    completed: bool  # every battery job reached a final verdict
    consistent: bool  # store/ledger match the clean baseline exactly
    deduped: bool  # resubmission answered without re-execution
    injected: int  # fault firings observed at the proxy
    reconnects: int  # client backoffs taken
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.completed and self.consistent and self.deduped

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = (
            f"[{status}] {self.fault}@{self.phase}: injected={self.injected} "
            f"reconnects={self.reconnects}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class NetChaosSweep:
    """Aggregate outcome of a network chaos sweep."""

    baseline_jobs: int = 0
    results: list[NetChaosResult] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and bool(self.results)
            and all(result.ok for result in self.results)
        )

    def describe(self) -> str:
        lines = [
            f"netchaos sweep: baseline {self.baseline_jobs} job(s), "
            f"{len(self.results)} fault cell(s)"
        ]
        if self.error:
            lines.append(f"[FAIL] {self.error}")
        lines.extend(result.describe() for result in self.results)
        verdict = "PASS" if self.ok else "FAIL"
        failed = sum(1 for result in self.results if not result.ok)
        lines.append(
            f"netchaos sweep {verdict}: {len(self.results) - failed}/"
            f"{len(self.results)} cells ok"
        )
        return "\n".join(lines)


def default_matrix(
    faults: Optional[list[str]] = None,
    phases: Optional[list[str]] = None,
) -> list[NetFault]:
    """Every connection-killing fault kind × every protocol phase.

    ``latency`` rides along at the connect phase only (elsewhere it is
    just a slower success) and ``partition`` only makes sense at
    connect (it refuses whole connections); the four killing kinds
    cover all four phases.
    """
    picked_faults = list(faults) if faults else list(FAULT_KINDS)
    picked_phases = list(phases) if phases else list(PHASES)
    for kind in picked_faults:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    for phase in picked_phases:
        if phase not in PHASES:
            raise ValueError(f"unknown fault phase {phase!r}")
    cells: list[NetFault] = []
    for kind in picked_faults:
        if kind == FAULT_PARTITION:
            if PHASE_CONNECT in picked_phases:
                cells.append(NetFault(kind, PHASE_CONNECT, arg=0.4))
            continue
        if kind == FAULT_LATENCY:
            if PHASE_CONNECT in picked_phases:
                cells.append(NetFault(kind, PHASE_CONNECT, arg=0.15))
            continue
        cells.extend(NetFault(kind, phase) for phase in picked_phases)
    return cells


def _drive_battery(
    endpoint: tuple[str, int],
    battery: list[dict],
    seed: int,
    timeout: float,
) -> tuple[list[dict], int]:
    """Run every job to a final verdict through *endpoint*.

    Returns the final responses plus the reconnect count.  Raises
    :class:`ServerGone` if any job cannot be finished inside *timeout*.
    """
    retry = RetryPolicy(
        max_retries=12, base_delay=0.05, multiplier=1.7, jitter=0.5, seed=seed
    )
    client = ResilientClient(*endpoint, timeout=10.0, retry=retry)
    finals = []
    for job in battery:
        final = client.run(job, deadline=Deadline.after(timeout))
        if final.get("status") != "done":
            raise ServerGone(f"job did not finish: {final!r}")
        finals.append(final)
    return finals, client.reconnects


@dataclass
class _CycleOutcome:
    """Everything one server+proxy cycle produced."""

    injected: Counter = field(default_factory=Counter)
    stats: dict = field(default_factory=dict)
    reconnects: int = 0
    error: str = ""


def _run_cycle(
    root: str,
    name: str,
    schedule: FaultSchedule,
    battery: list[dict],
    seed: int,
    run_timeout: float,
    python: str,
) -> _CycleOutcome:
    """Boot a fresh server + proxy, drive and resubmit the battery, drain.

    The battery is driven *through the proxy*; the resubmission also
    goes through the (still hostile) proxy — the dedupe path must be
    able to answer it under fire.  Stats are read directly from the
    server afterwards so fault injection cannot corrupt the reading.
    """
    outcome = _CycleOutcome()
    dirpath = os.path.join(root, name)
    os.makedirs(dirpath, exist_ok=True)
    proc = _start_server(
        python,
        dirpath,
        env_extra={},
        isolation=False,
        timeout=run_timeout,
        extra_args=("--heartbeat-interval", "0.5"),
    )
    try:
        try:
            server_endpoint = wait_for_endpoint(dirpath, timeout=30.0)
        except ServerGone as exc:
            outcome.error = f"server never became ready: {exc}"
            return outcome
        with NetChaosProxy(*server_endpoint, schedule=schedule) as proxy:
            try:
                finals, outcome.reconnects = _drive_battery(
                    proxy.endpoint, battery, seed, run_timeout
                )
                resubmits, more = _drive_battery(
                    proxy.endpoint, battery, seed + 1, run_timeout
                )
                outcome.reconnects += more
                for first, second in zip(finals, resubmits):
                    if first.get("result") != second.get("result"):
                        outcome.error = "resubmitted verdict differs"
                        break
            except (OSError, RuntimeError, ValueError, KeyError) as exc:
                # ServerGone is ConnectionError, ProtocolError is
                # RuntimeError; Value/KeyError cover malformed frames.
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.injected = Counter(proxy.injected)
        if not outcome.error:
            direct = ResilientClient(*server_endpoint, timeout=10.0)
            try:
                outcome.stats = direct.stats(deadline=Deadline.after(20.0))
            except (OSError, RuntimeError, ValueError) as exc:
                outcome.error = f"stats read failed: {exc}"
    finally:
        try:
            _stop(proc, timeout=run_timeout)
        except (OSError, subprocess.SubprocessError):
            if not outcome.error:
                outcome.error = "server did not stop on SIGTERM"
    return outcome


def netchaos_sweep(
    battery: Optional[list[dict]] = None,
    workdir: Optional[str] = None,
    faults: Optional[list[str]] = None,
    phases: Optional[list[str]] = None,
    seed: int = 0,
    run_timeout: float = 120.0,
    python: str = sys.executable,
    fault_window: int = 6,
    on_result: Optional[Callable[[NetChaosResult], None]] = None,
) -> NetChaosSweep:
    """Sweep every fault cell against a real server, via the proxy.

    One clean cycle (passthrough proxy, same streaming client)
    establishes the baseline store bytes; each fault cell then must
    reproduce them exactly despite the adversary, and a resubmitted
    battery must be answered from dedupe — ``stored`` stays flat at the
    baseline count and every resubmit returns the same verdict.
    """
    battery = battery if battery is not None else default_battery()
    cells = default_matrix(faults=faults, phases=phases)
    sweep = NetChaosSweep()
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-netchaos-")
        root = own_tmp.name
    else:
        root = tempfile.mkdtemp(prefix="netchaos-", dir=workdir)
    try:
        # Clean-network baseline through a passthrough proxy.
        base = _run_cycle(
            root, "baseline", FaultSchedule(), battery, seed,
            run_timeout, python,
        )
        baseline = store_state(os.path.join(root, "baseline"))
        if base.error or not baseline[0]:
            sweep.error = (
                f"clean baseline failed: {base.error or 'empty store'}"
            )
            return sweep
        baseline_stored = int(
            base.stats.get("counters", {}).get("stored", 0)
        )
        sweep.baseline_jobs = len(battery)

        for cell_index, fault in enumerate(cells):
            name = f"cell-{cell_index:02d}-{fault.kind}-{fault.phase}"
            # One partition trigger is a whole fault window by itself
            # (the timed heal governs later connections); re-arming it
            # on every early connection would chain partitions end to
            # end and starve the client's retry budget.
            count = 1 if fault.kind == FAULT_PARTITION else fault_window
            schedule = FaultSchedule.window(fault, count=count)
            cell = _run_cycle(
                root, name, schedule, battery, seed, run_timeout, python
            )
            injected = sum(
                count
                for key, count in cell.injected.items()
                if key.startswith(fault.kind) or key.startswith("partition")
            )
            consistent, detail = check_store(
                os.path.join(root, name), baseline
            )
            stored = int(cell.stats.get("counters", {}).get("stored", -1))
            deduped = not cell.error and stored == baseline_stored
            if not deduped and not cell.error:
                detail = (
                    f"{detail}; " if detail else ""
                ) + f"stored={stored} != baseline {baseline_stored}"
            result = NetChaosResult(
                fault=fault.kind,
                phase=fault.phase,
                completed=not cell.error,
                consistent=consistent,
                deduped=deduped,
                injected=injected,
                reconnects=cell.reconnects,
                detail=cell.error or detail,
            )
            sweep.results.append(result)
            if on_result is not None:
                on_result(result)
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    return sweep
