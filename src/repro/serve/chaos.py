"""``repro chaos --serve``: kill the job server at every durability seam.

The campaign chaos harness (:func:`repro.resilience.chaos.chaos_sweep`)
proves checkpointed CLI runs survive ``kill -9``; this module points
the same adversary at the long-running server.  One **cycle** is:

1. start a server subprocess on a fresh state directory;
2. submit a deterministic job battery, waiting for each verdict;
3. stop the server (SIGTERM) and read the verdict store off disk.

The sweep first runs an uninterrupted cycle (the **baseline** store
bytes), then a traced cycle to census reachable crashpoints, then — per
(point, hit, mode) — an armed cycle that dies mid-flight, a restart
that recovers, a full battery resubmission (deduped against whatever
survived), and a graceful drain.  The final store must satisfy, for
every cycle:

* **none lost** — every job the dead server ACCEPTED is stored;
* **none duplicated** — exactly one store frame per fingerprint, and at
  most one completion record per fingerprint in the raw ledger;
* **byte-identical** — each stored verdict's bytes equal the baseline's.

Crashpoints inside the *recovery* path (``serve.recover.*``) cannot be
reached by killing a fresh server, so the census additionally traces a
restart after a staged ``serve.complete.gap`` kill, and sweep cycles
for those points arm the restart instead of the first incarnation.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.chaos import (
    ENV_SCOPE,
    ENV_SPECS,
    ENV_TRACE,
    MODE_EXIT,
    MODE_KILL,
    _read_trace,
    _select_hits,
    _src_pythonpath,
)
from repro.resilience.chaos import EXIT_STATUS as CHAOS_EXIT_STATUS
from repro.resilience.frames import read_frames
from repro.resilience.journal import KIND_UNIT
from repro.resilience.journal import MAGIC as JOURNAL_MAGIC
from repro.serve.client import ServeClient, ServerGone, read_endpoint
from repro.serve.server import ENDPOINT_NAME, LEDGER_NAME, STORE_NAME
from repro.serve.store import MAGIC as STORE_MAGIC

__all__ = [
    "ServeChaosResult",
    "ServeChaosSweep",
    "default_battery",
    "serve_chaos_sweep",
]

#: Points that only execute while a restart is repairing a previous
#: incarnation's ledger; sweep cycles for them arm the restart.
RECOVERY_PREFIX = "serve.recover."

#: The staged first-incarnation kill used to make recovery points
#: reachable (one verdict stored, its completion record missing).
_STAGING_SPEC = "serve.complete.gap:1:kill"


@dataclass(frozen=True)
class ServeChaosResult:
    """One (point, hit, mode) kill/restart cycle's verdict."""

    point: str
    hit: int
    mode: str
    killed: bool
    recovered: bool
    consistent: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.killed and self.recovered and self.consistent


@dataclass
class ServeChaosSweep:
    """Everything one :func:`serve_chaos_sweep` run produced."""

    baseline: dict = field(default_factory=dict)  # fingerprint -> bytes
    reachable: dict = field(default_factory=dict)
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def describe(self) -> str:
        good = sum(1 for r in self.results if r.ok)
        return (
            f"{len(self.baseline)} baseline verdicts, "
            f"{len(self.reachable)} reachable crashpoints, "
            f"{len(self.results)} kill/restart cycles, {good} consistent"
        )


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


def _cycle(
    python: str,
    dirpath: str,
    battery: list[dict],
    env_extra: dict,
    isolation: bool,
    timeout: float,
) -> tuple[list[str], Optional[str], int]:
    """One full server cycle; returns (acks, death detail, returncode)."""
    proc = _start_server(python, dirpath, env_extra, isolation, timeout)
    try:
        acks, death = _submit_battery(dirpath, proc, battery, timeout)
        if proc.poll() is None:
            returncode = _stop(proc, timeout)
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


def _check_consistency(
    dirpath: str, baseline: dict, acknowledged: list[str]
) -> tuple[bool, str]:
    records = _store_records(dirpath)
    problems = []
    for fingerprint, payloads in records.items():
        if len(payloads) > 1:
            problems.append(f"{fingerprint[:12]} stored {len(payloads)}x")
    for fingerprint in acknowledged:
        if fingerprint not in records:
            problems.append(f"acknowledged {fingerprint[:12]} lost")
    for fingerprint, expected in baseline.items():
        got = records.get(fingerprint)
        if got is None:
            problems.append(f"baseline {fingerprint[:12]} missing")
        elif got[0] != expected:
            problems.append(f"baseline {fingerprint[:12]} bytes diverged")
    for fingerprint, count in _ledger_done_counts(dirpath).items():
        if count > 1:
            problems.append(
                f"{fingerprint[:12]} completed {count}x in the ledger"
            )
    return (not problems, "; ".join(problems))


def serve_chaos_sweep(
    battery: Optional[list[dict]] = None,
    workdir: Optional[str] = None,
    modes: tuple = (MODE_KILL,),
    max_hits_per_point: int = 2,
    points: Optional[list] = None,
    seed: int = 0,
    timeout: float = 60.0,
    python: str = sys.executable,
    isolation: bool = False,
    on_result=None,
) -> ServeChaosSweep:
    """Kill the server at every reachable crashpoint; assert recovery.

    Only process-death modes make sense here (``kill``, ``exit``): the
    sweep's contract is about what a dead server's disk state recovers
    to.  *isolation* toggles the pool's process isolation inside the
    server under test (off by default: the durability seams are the
    target, and serial execution keeps cycles fast and hit counts
    deterministic).
    """
    for mode in modes:
        if mode not in (MODE_KILL, MODE_EXIT):
            raise ValueError(
                f"serve sweeps support kill/exit modes, not {mode!r}"
            )
    if battery is None:
        battery = default_battery()
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        workdir = own_tmp.name
    try:
        return _sweep(
            battery, workdir, modes, max_hits_per_point, points, seed,
            timeout, python, isolation, on_result,
        )
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _sweep(
    battery, workdir, modes, max_hits_per_point, points, seed,
    timeout, python, isolation, on_result,
) -> ServeChaosSweep:
    sweep = ServeChaosSweep()

    # 1. Baseline: an uninterrupted cycle fixes the expected store bytes.
    base_dir = os.path.join(workdir, "baseline")
    os.makedirs(base_dir, exist_ok=True)
    acks, death, returncode = _cycle(
        python, base_dir, battery, {}, isolation, timeout
    )
    if death is not None or len(acks) != len(battery):
        raise RuntimeError(
            f"baseline server cycle failed ({death or 'short battery'}; "
            f"exit {returncode})"
        )
    sweep.baseline = {
        fp: payloads[0] for fp, payloads in _store_records(base_dir).items()
    }

    # 2. Census: trace one cycle, plus one staged-recovery restart so
    #    the serve.recover.* points show up.
    census_dir = os.path.join(workdir, "census")
    os.makedirs(census_dir, exist_ok=True)
    trace = os.path.join(workdir, "trace.txt")
    _cycle(
        python, census_dir, battery, {ENV_TRACE: trace}, isolation, timeout
    )
    recover_dir = os.path.join(workdir, "census-recover")
    os.makedirs(recover_dir, exist_ok=True)
    recover_trace = os.path.join(workdir, "trace-recover.txt")
    _cycle(
        python, recover_dir, battery, {ENV_SPECS: _STAGING_SPEC},
        isolation, timeout,
    )
    _cycle(
        python, recover_dir, battery, {ENV_TRACE: recover_trace},
        isolation, timeout,
    )
    reachable = _read_trace(trace)
    for point, count in _read_trace(recover_trace).items():
        if point.startswith(RECOVERY_PREFIX):
            reachable[point] = max(reachable[point], count)
    sweep.reachable = dict(sorted(reachable.items()))

    # 3. Kill/restart cycles.
    for point in sorted(reachable):
        if points is not None and point not in points:
            continue
        hits = _select_hits(
            reachable[point], max_hits_per_point, point, seed
        )
        for hit in hits:
            for mode in modes:
                result = _kill_and_recover(
                    battery, workdir, point, hit, mode, sweep,
                    timeout, python, isolation,
                )
                sweep.results.append(result)
                if on_result is not None:
                    on_result(result)
    return sweep


def _kill_and_recover(
    battery, workdir, point, hit, mode, sweep, timeout, python, isolation,
) -> ServeChaosResult:
    tag = f"{point}.{hit}.{mode}".replace("/", "_")
    dirpath = os.path.join(workdir, f"cycle-{tag}")
    os.makedirs(dirpath, exist_ok=True)
    spec = f"{point}:{hit}:{mode}"
    staged = point.startswith(RECOVERY_PREFIX)
    acknowledged: list[str] = []

    # Armed incarnation(s): for recovery points, stage a store/ledger
    # gap first, then arm the restart that repairs it.
    first_env = {ENV_SPECS: _STAGING_SPEC if staged else spec}
    acks, death, returncode = _cycle(
        python, dirpath, battery, first_env, isolation, timeout
    )
    acknowledged.extend(acks)
    if staged:
        acks, death, returncode = _cycle(
            python, dirpath, battery, {ENV_SPECS: spec}, isolation, timeout
        )
        acknowledged.extend(acks)
    expected = (
        -signal.SIGKILL if mode == MODE_KILL else CHAOS_EXIT_STATUS
    )
    if returncode != expected:
        return ServeChaosResult(
            point, hit, mode, killed=False, recovered=False,
            consistent=False,
            detail=(
                f"expected the server to die at {spec}, got exit "
                f"{returncode} (death={death!r})"
            ),
        )

    # Unarmed restart: recover, complete the full battery, drain.
    acks, death, returncode = _cycle(
        python, dirpath, battery, {}, isolation, timeout
    )
    acknowledged.extend(acks)
    if death is not None or len(acks) != len(battery):
        return ServeChaosResult(
            point, hit, mode, killed=True, recovered=False,
            consistent=False,
            detail=(
                f"restart failed to complete the battery "
                f"({death or 'short battery'}; exit {returncode})"
            ),
        )
    consistent, detail = _check_consistency(
        dirpath, sweep.baseline, acknowledged
    )
    return ServeChaosResult(
        point, hit, mode, killed=True, recovered=True,
        consistent=consistent, detail=detail,
    )
