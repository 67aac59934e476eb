"""E17 — the job server under load: shedding beats buffering.

A real ``repro serve`` subprocess is driven at multiples of its
admission bound with cheap probe jobs and the submit path is measured
end to end (TCP round-trip to ACCEPTED/REJECTED/done).  Two arms:

* ``shedding`` — ``--queue-limit`` at the configured bound: overload
  past the bound is refused with a structured ``queue-full`` rejection
  in O(1), so the submit path stays fast no matter the offered load.
* ``buffering`` — the bound effectively removed (a huge queue limit):
  the same offered load is all accepted, and every accepted job's
  latency now includes the whole backlog ahead of it.

The acceptance bar (ISSUE 7): at 10x the admission bound the server
sheds with structured rejections — never an unhandled exception, a
crash, or unbounded queue growth — and still answers on the control
plane afterwards.  Rows are written to ``benchmarks/results`` like
every other experiment.
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
from repro.serve.client import ServeClient, wait_for_endpoint

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The admission bound under test and the offered-load multiples.
BOUND = 4
OVERLOADS = (2, 10)

#: Per-probe busywork: ~100-200ms each — slow enough that a submit
#: burst provably outpaces completion (the queue genuinely fills), fast
#: enough that one bench arm drains in seconds.
PROBE_WORK = 200_000

#: Stands in for "no shedding": admission never refuses at bench scale.
UNBOUNDED = 1_000_000


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in (ENV_SPECS, ENV_TRACE, ENV_SCOPE):
        env.pop(var, None)
    return env


def _start_server(dirpath, queue_limit):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dir", str(dirpath),
            "--port", "0",
            "--queue-limit", str(queue_limit),
            "--concurrency", "1",
            "--no-isolation",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_env(),
    )
    try:
        host, port = wait_for_endpoint(dirpath, timeout=30.0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ServeClient(host, port, timeout=60.0)


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


def _drive(client, arm, multiple):
    """Offer ``multiple * BOUND`` distinct jobs as fast as the socket
    allows; return per-response latencies and the outcome tally."""
    latencies = []
    outcomes = {"accepted": 0, "rejected": 0, "done": 0}
    for i in range(multiple * BOUND):
        job = {
            "kind": "probe",
            "work": PROBE_WORK,
            "value": f"e17-{arm}-{multiple}x-{i}",
        }
        t0 = time.perf_counter()
        response = client.submit(job)
        latencies.append(time.perf_counter() - t0)
        status = response["status"]
        assert status in outcomes, f"unstructured response: {response}"
        outcomes[status] += 1
    return latencies, outcomes


def _wait_idle(client, deadline=120.0):
    """Let the accepted backlog drain so arms don't bleed into each
    other (and the buffering arm's queue provably empties)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        stats = client.stats()
        if stats["active"] == 0:
            return stats
        time.sleep(0.05)
    raise AssertionError("server never drained its backlog")


def _run_arm(arm, tmp_path):
    queue_limit = BOUND if arm == "shedding" else UNBOUNDED
    proc, client = _start_server(tmp_path / arm, queue_limit)
    rows = []
    try:
        for multiple in OVERLOADS:
            latencies, outcomes = _drive(client, arm, multiple)
            offered = multiple * BOUND
            if arm == "shedding":
                # The acceptance bar: overload past the bound is shed
                # with structured queue-full rejections.  (The bound
                # caps *in-flight* work — the integration suite pins
                # that invariant — so admitted counts cumulative
                # acceptances across the burst.)
                assert outcomes["rejected"] > 0, (multiple, outcomes)
            else:
                assert outcomes["rejected"] == 0, (multiple, outcomes)
            assert client.ping()["status"] == "ok"
            stats = _wait_idle(client)
            assert stats["counters"]["errors"] == 0
            rows.append([
                arm,
                f"{multiple}x",
                offered,
                outcomes["accepted"] + outcomes["done"],
                outcomes["rejected"],
                f"{1000 * statistics.median(latencies):.2f}",
                f"{1000 * max(latencies):.2f}",
            ])
        final = client.stats()
        assert final["counters"]["errors"] == 0
        assert final["queued"] == 0
    finally:
        _stop_server(proc)
    return rows


@pytest.mark.parametrize("arm", ["shedding", "buffering"])
def test_e17_overload_behavior(benchmark, arm, tmp_path):
    rows = benchmark.pedantic(_run_arm, args=(arm, tmp_path), rounds=1)
    table = render_table(
        ["arm", "load", "offered", "admitted", "rejected",
         "submit p50 (ms)", "submit max (ms)"],
        rows,
    )
    save_table(f"e17_serve_load_{arm}", "E17: serve under overload", table)
