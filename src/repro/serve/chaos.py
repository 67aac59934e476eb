"""The job server as a target of the crashpoint sweep.

:func:`repro.resilience.chaos.chaos_sweep` proves checkpointed CLI runs
survive ``kill -9``; :class:`ServerTarget` points the same sweep at the
long-running server (``repro chaos --serve``).  One server **cycle** is:

1. start a server subprocess on a state directory;
2. submit a deterministic job battery, waiting for each verdict;
3. stop the server (SIGTERM).

The baseline is an uninterrupted cycle's verdict store.  An armed cycle
dies mid-flight; recovery is an unarmed restart that completes the
full battery (deduped against whatever survived) and drains.  The
store must then pass :func:`check_store`: none lost, none duplicated,
byte-identical to the baseline.

Crashpoints inside the *recovery* path (``serve.recover.*``) cannot be
reached by killing a fresh server, so the census additionally traces a
restart after a staged ``serve.complete.gap`` kill, and armed cycles
for those points arm the restart instead of the first incarnation.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from typing import Optional

from repro.resilience.chaos import _read_trace, _src_pythonpath
from repro.resilience.crashpoint import (
    ENV_SCOPE,
    ENV_SPECS,
    ENV_TRACE,
    MODE_EXIT,
    MODE_KILL,
)
from repro.resilience.frames import read_frames
from repro.resilience.journal import KIND_UNIT
from repro.resilience.journal import MAGIC as JOURNAL_MAGIC
from repro.serve.client import ServeClient, ServerGone, read_endpoint
from repro.serve.server import ENDPOINT_NAME, LEDGER_NAME, STORE_NAME
from repro.serve.store import MAGIC as STORE_MAGIC

__all__ = [
    "ServerTarget",
    "check_store",
    "default_battery",
    "store_state",
]

#: Points that only execute while a restart is repairing a previous
#: incarnation's ledger; sweep cycles for them arm the restart.
RECOVERY_PREFIX = "serve.recover."

#: The staged first-incarnation kill used to make recovery points
#: reachable (one verdict stored, its completion record missing).
_STAGING_SPEC = "serve.complete.gap:1:kill"


def default_battery(jobs: int = 5) -> list[dict]:
    """A deterministic mixed battery: one real sweep plus fast probes."""
    battery: list[dict] = [
        {"kind": "refute", "protocol": "quorum", "model": "s1-mobile", "n": 3}
    ]
    for index in range(max(0, jobs - 1)):
        battery.append(
            {"kind": "probe", "work": 40 + index, "value": f"battery-{index}"}
        )
    return battery


def _start_server(
    python: str,
    dirpath: str,
    env_extra: dict,
    isolation: bool,
    timeout: float,
    extra_args: tuple = (),
) -> subprocess.Popen:
    # A stale endpoint file would make wait_for_endpoint ping a dead
    # incarnation's port; the new server rewrites it after binding.
    try:
        os.unlink(os.path.join(dirpath, ENDPOINT_NAME))
    except OSError:
        pass
    env = dict(os.environ)
    env.update({ENV_SPECS: "", ENV_TRACE: "", ENV_SCOPE: ""})
    env.update(env_extra)
    env["PYTHONPATH"] = _src_pythonpath(env)
    argv = [
        python, "-m", "repro", "serve",
        "--dir", dirpath,
        "--port", "0",
        "--queue-limit", "32",
        "--concurrency", "1",
        "--job-timeout", str(timeout),
        "--drain-grace", str(timeout),
    ]
    argv.extend(extra_args)
    if not isolation:
        argv.append("--no-isolation")
    return subprocess.Popen(
        argv,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
    )


def _stop(proc: subprocess.Popen, timeout: float) -> int:
    """SIGTERM then wait; escalate to SIGKILL only on a stuck process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        raise


def _wait_ready(
    dirpath: str, proc: subprocess.Popen, timeout: float
) -> Optional[tuple[str, int]]:
    """Wait until the server answers a ping — or is observed dead.

    Returns the endpoint, or None when the process died first (an armed
    restart can be killed inside recovery, before it ever binds).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        endpoint = read_endpoint(dirpath)
        if endpoint is not None:
            try:
                ServeClient(*endpoint, timeout=1.0).ping()
                return endpoint
            except ServerGone:
                pass
        if proc.poll() is not None:
            return None
        time.sleep(0.02)
    return None


def _submit_battery(
    dirpath: str,
    proc: subprocess.Popen,
    battery: list[dict],
    timeout: float,
) -> tuple[list[str], Optional[str]]:
    """Submit every job, waiting for each verdict.

    Returns ``(acknowledged fingerprints, death detail)`` — the second
    element is set when the server stopped answering mid-battery.
    """
    acknowledged: list[str] = []
    endpoint = _wait_ready(dirpath, proc, timeout)
    if endpoint is None:
        return acknowledged, "server died before answering"
    client = ServeClient(*endpoint, timeout=timeout)
    for job in battery:
        try:
            response = client.submit(job, wait=True)
        except ServerGone as exc:
            return acknowledged, str(exc)
        if response.get("status") in ("accepted", "done"):
            acknowledged.append(response["id"])
        else:
            return acknowledged, f"unexpected response {response!r}"
    return acknowledged, None


def _store_records(dirpath: str) -> dict[str, list[bytes]]:
    """Raw store payloads by fingerprint (lists expose duplicates)."""
    path = os.path.join(dirpath, STORE_NAME)
    records: dict[str, list[bytes]] = {}
    if not os.path.exists(path):
        return records
    payloads, _torn, _size = read_frames(path, STORE_MAGIC)
    for payload in payloads:
        fingerprint = json.loads(payload)["fingerprint"]
        records.setdefault(fingerprint, []).append(payload)
    return records


def _ledger_done_counts(dirpath: str) -> Counter:
    """How many raw completion records each fingerprint has."""
    path = os.path.join(dirpath, LEDGER_NAME)
    counts: Counter = Counter()
    if not os.path.exists(path):
        return counts
    payloads, _torn, _size = read_frames(path, JOURNAL_MAGIC)
    for payload in payloads:
        kind, data = pickle.loads(payload)
        if kind == KIND_UNIT and data[0].startswith("done:"):
            counts[data[0][len("done:") :]] += 1
    return counts




def store_state(dirpath: str) -> tuple[dict[str, list[bytes]], Counter]:
    """A state directory's store payloads by fingerprint and its ledger's
    completion counts by fingerprint."""
    return _store_records(dirpath), _ledger_done_counts(dirpath)


def check_store(
    dirpath: str,
    baseline: tuple[dict[str, list[bytes]], Counter],
    acknowledged: tuple = (),
) -> tuple[bool, str]:
    """The durability contract for a recovered state directory.

    Against *baseline* (a :func:`store_state` of a clean run) and the
    fingerprints a dead server *acknowledged*: every fingerprint is
    stored once, and only baseline ones; no acknowledged or baseline
    verdict is lost; stored bytes equal the baseline's; the ledger
    completes each fingerprint at most once and loses none of the
    baseline's completions.  Returns ``(ok, problems)``.
    """
    records, done = store_state(dirpath)
    base_records, base_done = baseline
    problems = []
    for fingerprint, payloads in records.items():
        if len(payloads) > 1:
            problems.append(f"{fingerprint[:12]} stored {len(payloads)}x")
        if fingerprint not in base_records:
            problems.append(f"unexpected record {fingerprint[:12]}")
    for fingerprint in acknowledged:
        if fingerprint not in records:
            problems.append(f"acknowledged {fingerprint[:12]} lost")
    for fingerprint, expected in base_records.items():
        got = records.get(fingerprint)
        if got is None:
            problems.append(f"baseline {fingerprint[:12]} lost")
        elif len(got) == 1 and got != expected:
            problems.append(f"baseline {fingerprint[:12]} bytes diverged")
    for fingerprint, count in done.items():
        if count > 1:
            problems.append(
                f"{fingerprint[:12]} completed {count}x in the ledger"
            )
    for fingerprint in base_done:
        if fingerprint not in done:
            problems.append(f"ledger lost completion {fingerprint[:12]}")
    return (not problems, "; ".join(problems))


class ServerTarget:
    """``repro serve`` as a target of
    :func:`repro.resilience.chaos.chaos_sweep`.

    *battery* is the job list each cycle submits (default
    :func:`default_battery`); *timeout* bounds each job and each drain;
    *isolation* runs the jobs on the server's pool workers (off by
    default: the durability seams are the target, and serial execution
    keeps cycles fast and hit counts deterministic).  Only process
    deaths apply: the contract is what a dead server's disk recovers to.
    """

    modes = (MODE_KILL, MODE_EXIT)
    cycle = "kill/restart"
    columns = ("recovered", "consistent")

    def __init__(
        self,
        battery: Optional[list[dict]] = None,
        timeout: float = 60.0,
        isolation: bool = False,
    ) -> None:
        self.battery = default_battery() if battery is None else battery
        self.timeout = timeout
        self.isolation = isolation
        self.baseline: tuple = ({}, Counter())

    def _cycle(
        self, dirpath: str, env_extra: dict
    ) -> tuple[list[str], Optional[str], int]:
        """One full server cycle; returns (acks, death detail, returncode)."""
        proc = _start_server(
            sys.executable, dirpath, env_extra, self.isolation, self.timeout
        )
        try:
            acks, death = _submit_battery(
                dirpath, proc, self.battery, self.timeout
            )
            if proc.poll() is None:
                returncode = _stop(proc, self.timeout)
            else:
                returncode = proc.wait(timeout=10)
            return acks, death, returncode
        finally:
            # Never leave a server orphaned — not on timeout, not on Ctrl-C.
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            if proc.stderr is not None:
                proc.stderr.close()

    def baseline_note(self) -> str:
        return f"{len(self.baseline[0])} baseline verdicts, "

    def run_baseline(self, workdir: str) -> None:
        base_dir = os.path.join(workdir, "baseline")
        os.makedirs(base_dir, exist_ok=True)
        acks, death, returncode = self._cycle(base_dir, {})
        if death is not None or len(acks) != len(self.battery):
            raise RuntimeError(
                f"baseline server cycle failed ({death or 'short battery'}; "
                f"exit {returncode})"
            )
        self.baseline = store_state(base_dir)

    def census(self, workdir: str) -> Counter:
        """Trace one cycle, plus one restart after a staged kill so the
        ``serve.recover.*`` points show up."""
        census_dir = os.path.join(workdir, "census")
        recover_dir = os.path.join(workdir, "census-recover")
        os.makedirs(census_dir, exist_ok=True)
        os.makedirs(recover_dir, exist_ok=True)
        trace = os.path.join(workdir, "trace.txt")
        recover_trace = os.path.join(workdir, "trace-recover.txt")
        self._cycle(census_dir, {ENV_TRACE: trace})
        self._cycle(recover_dir, {ENV_SPECS: _STAGING_SPEC})
        self._cycle(recover_dir, {ENV_TRACE: recover_trace})
        reachable = _read_trace(trace)
        for point, count in _read_trace(recover_trace).items():
            if point.startswith(RECOVERY_PREFIX):
                reachable[point] = max(reachable[point], count)
        return reachable

    def arm(self, path: str, spec: str, trace: str) -> tuple:
        # For recovery points, stage a store/ledger gap first, then arm
        # the restart that repairs it.
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        acknowledged: list[str] = []
        if spec.startswith(RECOVERY_PREFIX):
            acks, _death, _code = self._cycle(
                path, {ENV_SPECS: _STAGING_SPEC}
            )
            acknowledged.extend(acks)
        acks, _death, returncode = self._cycle(
            path, {ENV_SPECS: spec, ENV_TRACE: trace}
        )
        return returncode, acknowledged + acks

    def recover(self, path: str, acknowledged: list[str]) -> tuple:
        # Unarmed restart: recover, complete the full battery, drain.
        acks, death, returncode = self._cycle(path, {})
        if death is not None or len(acks) != len(self.battery):
            return False, False, (
                f"restart failed to complete the battery "
                f"({death or 'short battery'}; exit {returncode})"
            )
        consistent, detail = check_store(
            path, self.baseline, tuple(acknowledged + acks)
        )
        return True, consistent, detail
