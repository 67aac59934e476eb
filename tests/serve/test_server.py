"""Live-server integration: a real ``repro serve`` subprocess driven
over its TCP protocol.

Covers the headline robustness properties end to end: dedupe against
the durable store, structured shedding under overload (never a crash),
tenant quotas, and SIGTERM graceful drain with ledger-driven resume in
a fresh process.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.resilience.crashpoint import ENV_SCOPE, ENV_SPECS, ENV_TRACE
from repro.serve.client import ServeClient, wait_for_endpoint

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: ~0.1-0.5s of sha256 chaining: long enough to still be in flight when
#: a signal lands right after submission, far below any test timeout.
SLOW_WORK = 400_000


def _env(**chaos):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in (ENV_SPECS, ENV_TRACE, ENV_SCOPE):
        env.pop(var, None)
    env.update(chaos)
    return env


def _start(tmp_path, *extra, isolation=False, env=None):
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--dir", str(tmp_path),
        "--port", "0",
        "--concurrency", "1",
        *([] if isolation else ["--no-isolation"]),
        *extra,
    ]
    return subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env or _env(),
    )


def _stop(proc, timeout=60):
    try:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stderr is not None:
            proc.stderr.close()


def _client(tmp_path, proc, timeout=30.0):
    try:
        host, port = wait_for_endpoint(tmp_path, timeout=30.0)
    except BaseException:
        _stop(proc)
        raise
    return ServeClient(host, port, timeout=timeout)


def _probe(work, tag):
    return {"kind": "probe", "work": work, "value": tag}


def _refute(model="s1-mobile", max_states=None):
    job = {"kind": "refute", "protocol": "quorum", "model": model, "n": 2}
    if max_states is not None:
        job["max_states"] = max_states
    return job


def _children(pid):
    """Pids whose parent is *pid* (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _exited(pid):
    """Whether *pid* is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


@pytest.mark.slow
class TestServerRoundtrip:
    def test_submit_dedupe_and_stats(self, tmp_path):
        proc = _start(tmp_path)
        try:
            client = _client(tmp_path, proc)
            first = client.submit(_probe(50, "roundtrip"), wait=True)
            assert first["status"] == "done", first
            digest = first["result"]["digest"]

            again = client.submit(_probe(50, "roundtrip"), wait=True)
            assert again["status"] == "done"
            assert again.get("cached") is True
            assert again["result"]["digest"] == digest

            by_id = client.result(first["id"])
            assert by_id["status"] == "done"
            assert by_id["result"]["digest"] == digest

            stats = client.stats()
            assert stats["counters"]["stored"] == 1
            assert stats["counters"]["store_hits"] >= 1
            assert stats["store_records"] == 1
        finally:
            _stop(proc)

    def test_invalid_job_is_structured_rejection(self, tmp_path):
        proc = _start(tmp_path)
        try:
            client = _client(tmp_path, proc)
            response = client.submit({"kind": "probe", "work": -3})
            assert response["status"] == "rejected"
            assert response["reason"] == "invalid-job"
            assert client.ping()["status"] == "ok"
        finally:
            _stop(proc)

    def test_unknown_fingerprint(self, tmp_path):
        proc = _start(tmp_path)
        try:
            client = _client(tmp_path, proc)
            assert client.result("not-a-fp")["status"] == "unknown"
        finally:
            _stop(proc)


@pytest.mark.slow
class TestOverload:
    def test_overload_sheds_never_crashes(self, tmp_path):
        """10x the admission bound: every response is structured
        (accepted or REJECTED/queue-full) and the server stays alive."""
        bound = 2
        proc = _start(tmp_path, "--queue-limit", str(bound))
        try:
            client = _client(tmp_path, proc)
            responses = [
                client.submit(_probe(SLOW_WORK, f"overload-{i}"))
                for i in range(10 * bound)
            ]
            statuses = {r["status"] for r in responses}
            assert statuses <= {"accepted", "rejected"}, statuses
            rejected = [r for r in responses if r["status"] == "rejected"]
            assert rejected, "10x overload produced no shedding"
            assert {r["reason"] for r in rejected} == {"queue-full"}
            # Shedding is load-dependent, the bound is not: the number of
            # accepted-but-unfinished jobs never exceeds the queue limit.
            # (Total accepts may, since finished jobs free their slots.)
            stats = client.stats()
            assert 1 <= stats["high_water"] <= bound
            assert client.ping()["status"] == "ok"
            assert stats["counters"]["errors"] == 0
        finally:
            _stop(proc)

    def test_parallel_submits_never_exceed_the_bound(self, tmp_path):
        """Tiny probes from many clients at once: jobs finish about as
        fast as they arrive, so the bound is checked on the server's
        queue-depth high-water mark, not on how many jobs got in."""
        bound, clients, per_client = 2, 8, 5
        proc = _start(tmp_path, "--queue-limit", str(bound))
        try:
            first = _client(tmp_path, proc)
            host, port = first.host, first.port

            def burst(c):
                client = ServeClient(host, port, timeout=30.0)
                return [
                    client.submit(_probe(50, f"burst-{c}-{k}"))
                    for k in range(per_client)
                ]

            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = [
                    r for rs in pool.map(burst, range(clients)) for r in rs
                ]
            assert len(responses) == clients * per_client
            assert {r["status"] for r in responses} <= {"accepted",
                                                        "rejected"}
            assert {r["reason"] for r in responses
                    if r["status"] == "rejected"} <= {"queue-full"}
            stats = first.stats()
            assert 1 <= stats["high_water"] <= bound
            assert stats["counters"]["errors"] == 0
        finally:
            _stop(proc)

    def test_tenant_quota_exhaustion(self, tmp_path):
        proc = _start(tmp_path, "--tenant-max-states", "100")
        try:
            client = _client(tmp_path, proc)
            done = client.submit(_probe(200, "quota"), tenant="greedy",
                                 wait=True)
            assert done["status"] == "done"
            shed = client.submit(_probe(201, "quota"), tenant="greedy")
            assert shed["status"] == "rejected"
            assert shed["reason"] == "quota-exhausted"
            other = client.submit(_probe(202, "quota"), tenant="frugal",
                                  wait=True)
            assert other["status"] == "done"
        finally:
            _stop(proc)


@pytest.mark.slow
class TestGracefulDrainAndResume:
    def test_sigterm_drains_then_restart_resumes(self, tmp_path):
        jobs = [_probe(SLOW_WORK, f"drain-{i}") for i in range(4)]
        proc = _start(tmp_path, "--queue-limit", "8",
                      "--drain-grace", "0.05")
        fingerprints = []
        try:
            client = _client(tmp_path, proc)
            for job in jobs:
                response = client.submit(job)
                assert response["status"] == "accepted", response
                fingerprints.append(response["id"])
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
            assert proc.returncode == 130
        finally:
            _stop(proc)

        # A fresh process over the same directory must recover every
        # accepted-but-unfinished job from the ledger and finish it.
        proc = _start(tmp_path, "--queue-limit", "8")
        try:
            client = _client(tmp_path, proc)
            assert client.stats()["counters"]["recovered"] >= 1
            deadline = time.monotonic() + 60
            pending = set(fingerprints)
            while pending and time.monotonic() < deadline:
                for fp in sorted(pending):
                    response = client.result(fp)
                    if response["status"] == "done":
                        pending.discard(fp)
                time.sleep(0.05)
            assert not pending, f"jobs never completed: {sorted(pending)}"
            # Resubmitting any of them is now a pure store hit.
            cached = client.submit(jobs[0], wait=True)
            assert cached["status"] == "done"
            assert cached.get("cached") is True
            stats = client.stats()
            assert stats["store_records"] == len(jobs)
        finally:
            _stop(proc)


@pytest.mark.slow
class TestCompactionAndGC:
    def test_compact_op_evicts_then_resubmit_reruns_once(self, tmp_path):
        """Evicting a verdict is a cache eviction, not a correctness
        event: a resubmitted job re-runs to the same verdict, and the
        ledger still records its completion exactly once."""
        from repro.serve.chaos import _ledger_done_counts

        proc = _start(tmp_path)
        try:
            client = _client(tmp_path, proc)
            digests = {}
            for i in range(3):
                done = client.submit(_probe(50 + i, f"gc-{i}"), wait=True)
                assert done["status"] == "done"
                digests[done["id"]] = done["result"]["digest"]

            compacted = client.compact(retain=0)
            assert compacted["status"] == "ok"
            assert compacted["evicted"] == 3
            assert compacted["store_records"] == 0

            rerun = client.submit(_probe(50, "gc-0"), wait=True)
            assert rerun["status"] == "done"
            assert rerun["result"]["digest"] == digests[rerun["id"]]
            stats = client.stats()
            # Re-stored after the dedupe miss: 3 originals + 1 re-run.
            assert stats["counters"]["stored"] == 4
            assert stats["store_records"] == 1
        finally:
            _stop(proc)
        # The compact op also compacted the ledger into a base snapshot,
        # so raw unit records may be gone — but never duplicated — and
        # every completion must survive in the snapshot.
        done_counts = _ledger_done_counts(str(tmp_path))
        assert all(count == 1 for count in done_counts.values()), done_counts
        from repro.resilience.journal import CampaignJournal
        from repro.serve.chaos import LEDGER_NAME

        ledger = CampaignJournal.resume(str(tmp_path / LEDGER_NAME))
        try:
            completed = set(ledger.completed)
        finally:
            ledger.close()
        assert {f"done:{fp}" for fp in digests} <= completed

    def test_store_retain_runs_gc_automatically(self, tmp_path):
        proc = _start(tmp_path, "--store-retain", "2")
        try:
            client = _client(tmp_path, proc)
            for i in range(5):
                done = client.submit(_probe(50 + i, f"auto-{i}"), wait=True)
                assert done["status"] == "done"
            stats = client.stats()
            assert stats["store_records"] <= 2
            assert stats["counters"]["compactions"] >= 1
            assert stats["counters"]["gc_evicted"] >= 3
        finally:
            _stop(proc)

    def test_compact_rejects_bad_retain(self, tmp_path):
        proc = _start(tmp_path)
        try:
            client = _client(tmp_path, proc)
            for bad in (-1, True, "two"):
                response = client.request({"op": "compact", "retain": bad})
                assert response["status"] == "error", (bad, response)
            # And with no retain configured at all, compact is a no-op
            # rewrite, never an error.
            response = client.compact()
            assert response["status"] == "ok"
            assert response["evicted"] == 0
        finally:
            _stop(proc)


@pytest.mark.slow
class TestIsolatedServer:
    """The default ``repro serve``: every job runs on a pool worker that
    outlives it (one long-lived one-worker pool per executor)."""

    def test_record_matches_the_in_process_record(self, tmp_path):
        records = {}
        for isolation in (False, True):
            directory = tmp_path / f"isolation-{isolation}"
            proc = _start(directory, "--concurrency", "2",
                          isolation=isolation)
            try:
                client = _client(directory, proc)
                jobs = [_refute(max_states=1000 + i) for i in range(4)]
                done = [client.submit(job, wait=True) for job in jobs]
                assert all(r["status"] == "done" for r in done), done
                records[isolation] = [r["result"] for r in done]
                counters = client.stats()["counters"]
                # Fault-free jobs never spawn past the executors' pools.
                assert counters["pool_spawned"] == (2 if isolation else 0)
                assert counters["pool_respawned"] == 0
            finally:
                _stop(proc)
        assert records[True] == records[False]

    def test_worker_killed_on_its_second_job_is_replaced(self, tmp_path):
        """Each worker dies at its own second unit start.  A worker
        forked per job never runs a second unit, so a retry here also
        shows the worker outlived the first job."""
        env = _env(**{ENV_SCOPE: "all", ENV_SPECS: "worker.unit.start:2:kill"})
        proc = _start(tmp_path, isolation=True, env=env)
        try:
            client = _client(tmp_path, proc)
            first = client.submit(_refute(max_states=1001), wait=True)
            assert first["status"] == "done" and "result" in first, first
            assert client.stats()["counters"]["pool_respawned"] == 0
            second = client.submit(_refute(max_states=1002), wait=True)
            assert second["status"] == "done", second
            assert second["result"] == first["result"]
            counters = client.stats()["counters"]
            assert counters["stored"] == 2 and counters["degraded"] == 0
            assert (counters["pool_spawned"], counters["pool_respawned"]) == (
                2, 1
            )
        finally:
            _stop(proc)

    def test_always_dying_worker_quarantines_and_trips_breaker(
        self, tmp_path
    ):
        env = _env(**{ENV_SCOPE: "all", ENV_SPECS: "worker.unit.start:1:kill"})
        proc = _start(tmp_path, "--breaker-threshold", "1",
                      isolation=True, env=env)
        try:
            client = _client(tmp_path, proc)
            doomed = client.submit(_refute(max_states=1001), wait=True)
            assert doomed["reason"] == "quarantined", doomed
            assert doomed["verdict"] == "unknown" and doomed["degraded"]
            stats = client.stats()
            assert stats["breaker"]["state"] == "open"
            assert stats["breaker"]["opened_total"] == 1
            # One first attempt and one retry, each on its own worker.
            assert stats["counters"]["pool_respawned"] == 2
            shed = client.submit(_refute(max_states=1002), wait=True)
            assert shed["reason"] == "breaker-open", shed
            assert client.stats()["counters"]["stored"] == 0
        finally:
            _stop(proc)

    def test_workers_exit_after_the_server_is_killed(self, tmp_path):
        proc = _start(tmp_path, "--concurrency", "2", isolation=True)
        try:
            client = _client(tmp_path, proc)
            assert client.submit(_refute(), wait=True)["status"] == "done"
            workers = _children(proc.pid)
            assert len(workers) == client.stats()["counters"]["pool_spawned"]
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while not all(_exited(pid) for pid in workers):
                assert time.monotonic() < deadline, "orphaned pool workers"
                time.sleep(0.05)
        finally:
            _stop(proc)
