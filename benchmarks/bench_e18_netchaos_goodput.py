"""E18 — goodput and submit latency under an adversarial wire.

One real ``repro serve`` subprocess; four network profiles in front of
it, all driven by the PR 9 :class:`ResilientClient` (submit + streamed
verdict with cursor resume):

* ``clean-wait``    — direct connection, blocking ``wait=True`` submit:
  the pre-streaming baseline the overhead bar is measured against.
* ``clean-stream``  — direct connection, submit + event stream to the
  ``done`` frame: the acceptance bar says this costs < 5% over
  ``clean-wait`` (streaming/heartbeat overhead on a clean network).
* ``loss-1%`` / ``loss-5%`` — through a :class:`NetChaosProxy` whose
  seeded schedule kills ~1% / ~5% of connections (drop/reset/truncate
  at request or response phase); the client must absorb every fault
  with reconnect + cursor resume, trading goodput, never correctness.
* ``jitter-50ms``   — through a proxy adding a seeded uniform
  ``[0, 50ms)`` connect delay to every connection.

Every job in every arm must reach a ``done`` verdict — a lost or
duplicated job is a test failure, not a data point.  Goodput is
finished verdicts per wall-clock second; submit p50 is the time for the
``submit`` request alone (the op a latency-sensitive caller blocks on).

Smoke mode (``E18_SMOKE=1``, used by CI) shrinks the per-arm job count
so the whole file runs in tens of seconds; the acceptance numbers in
EXPERIMENTS.md come from the full run.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.resilience.crashpoint import ENV_SCOPE, ENV_SPECS, ENV_TRACE
from repro.resilience.retry import Deadline, RetryPolicy
from repro.serve.client import ResilientClient, ServeClient, wait_for_endpoint
from repro.serve.netchaos import FaultSchedule, NetChaosProxy

SRC = str(Path(__file__).resolve().parents[1] / "src")

SMOKE = os.environ.get("E18_SMOKE") == "1"

#: Jobs per arm.  Distinct values per arm keep the dedupe path out of
#: the measurement (every job really runs).  The full count is sized so
#: the seeded 1%-loss draw provably fires at least once inside the
#: ~2 connections/job the streaming client uses.
JOBS = 8 if SMOKE else 30

#: Per-probe busywork, ~100ms: the fixed per-job streaming cost (one
#: extra loopback connection + four frames instead of one response) is
#: a few ms, so the job must be long enough to represent real
#: verification work rather than measure connection setup.
PROBE_WORK = 200_000

#: Per-job budget under fault injection; generous because a 5%-loss arm
#: can hit several faults on one job's submit + stream path.
JOB_DEADLINE = 60.0

#: The acceptance bar: clean-network streaming costs < 5% in goodput
#: against the blocking-wait baseline.
MAX_STREAM_OVERHEAD = 0.05

RETRY = RetryPolicy(max_retries=12, base_delay=0.05, multiplier=1.7,
                    jitter=0.5, seed=18)

#: Schedule seed, chosen so the loss draws actually land inside the
#: connection range a full run uses (seeded hashing means a "1% loss"
#: profile under an unlucky seed could inject nothing at all).
SCHEDULE_SEED = 1

PROFILES = [
    ("clean-wait", None),
    ("clean-stream", None),
    ("loss-1%", FaultSchedule(seed=SCHEDULE_SEED, loss=0.01)),
    ("loss-5%", FaultSchedule(seed=SCHEDULE_SEED, loss=0.05)),
    ("jitter-50ms", FaultSchedule(seed=SCHEDULE_SEED, jitter=0.05)),
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in (ENV_SPECS, ENV_TRACE, ENV_SCOPE):
        env.pop(var, None)
    return env


def _start_server(dirpath):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dir", str(dirpath),
            "--port", "0",
            "--concurrency", "1",
            "--no-isolation",
            "--heartbeat-interval", "0.5",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_env(),
    )
    try:
        endpoint = wait_for_endpoint(dirpath, timeout=30.0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, endpoint


def _stop_server(proc):
    try:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stderr is not None:
            proc.stderr.close()


def _job(arm, index):
    return {"kind": "probe", "work": PROBE_WORK,
            "value": f"e18-{arm}-{index}"}


def _drive_wait(endpoint, arm):
    """The baseline arm: one blocking wait=True submit per job."""
    client = ServeClient(*endpoint, timeout=JOB_DEADLINE)
    submit_lat, job_lat = [], []
    started = time.perf_counter()
    for index in range(JOBS):
        t0 = time.perf_counter()
        response = client.submit(_job(arm, index), wait=True)
        elapsed = time.perf_counter() - t0
        assert response["status"] == "done", response
        submit_lat.append(elapsed)
        job_lat.append(elapsed)
    return time.perf_counter() - started, submit_lat, job_lat, 0


def _drive_stream(endpoint, arm):
    """Submit + follow the event stream to the done frame, per job."""
    client = ResilientClient(*endpoint, timeout=10.0, retry=RETRY)
    submit_lat, job_lat = [], []
    started = time.perf_counter()
    for index in range(JOBS):
        deadline = Deadline.after(JOB_DEADLINE)
        t0 = time.perf_counter()
        response = client.submit(_job(arm, index), deadline=deadline)
        submit_lat.append(time.perf_counter() - t0)
        if response["status"] == "done":
            # A killed submit *response* whose request had landed: the
            # blind resubmit was answered from dedupe, already final.
            job_lat.append(time.perf_counter() - t0)
            continue
        assert response["status"] == "accepted", response
        final = None
        for _seq, event in client.stream_events(
            response["id"], -1, deadline
        ):
            if event.get("type") == "done":
                final = event.get("response")
        assert final is not None and final["status"] == "done", final
        job_lat.append(time.perf_counter() - t0)
    return time.perf_counter() - started, submit_lat, job_lat, client.reconnects


def _run_all(tmp_path):
    proc, endpoint = _start_server(tmp_path / "server")
    rows = []
    goodput = {}
    try:
        for arm, schedule in PROFILES:
            if schedule is None:
                target, proxy = endpoint, None
            else:
                proxy = NetChaosProxy(*endpoint, schedule=schedule).start()
                target = proxy.endpoint
            injected = 0
            try:
                drive = _drive_wait if arm == "clean-wait" else _drive_stream
                total, submit_lat, job_lat, reconnects = drive(target, arm)
            finally:
                if proxy is not None:
                    injected = sum(proxy.injected.values())
                    proxy.stop()
            if arm == "loss-5%" and not SMOKE:
                # The seeded draw must actually exercise the retry path;
                # a sweep that injected nothing proves nothing.
                assert injected >= 1, "loss profile never fired"
            goodput[arm] = JOBS / total
            rows.append([
                arm,
                JOBS,
                f"{JOBS / total:.2f}",
                f"{1000 * statistics.median(submit_lat):.2f}",
                f"{1000 * statistics.median(job_lat):.2f}",
                f"{1000 * max(job_lat):.2f}",
                injected,
                reconnects,
            ])
        stats = ServeClient(*endpoint, timeout=10.0).stats()
        # Every job in every arm ran exactly once: nothing lost to the
        # proxy, nothing run twice past the dedupe.
        assert stats["counters"]["stored"] == JOBS * len(PROFILES), stats
        assert stats["counters"]["errors"] == 0, stats
    finally:
        _stop_server(proc)
    overhead = goodput["clean-wait"] / goodput["clean-stream"] - 1.0
    return rows, overhead


def test_e18_netchaos_goodput(benchmark, tmp_path):
    rows, overhead = benchmark.pedantic(_run_all, args=(tmp_path,), rounds=1)
    mode = "smoke" if SMOKE else "full"
    table = render_table(
        ["arm", "jobs", "goodput (jobs/s)", "submit p50 (ms)",
         "job p50 (ms)", "job max (ms)", "faults", "reconnects"],
        rows,
    )
    save_table(
        "e18_netchaos_goodput",
        f"E18: goodput under network faults ({mode}; "
        f"clean-stream overhead {100 * overhead:.1f}%)",
        table,
    )
    # The smoke run keeps the correctness assertions but not the
    # overhead bar: with few, short jobs one scheduler hiccup swamps
    # the percentage.
    if not SMOKE:
        assert overhead < MAX_STREAM_OVERHEAD, (
            f"clean-network streaming overhead {100 * overhead:.1f}% "
            f">= {100 * MAX_STREAM_OVERHEAD:.0f}%"
        )
