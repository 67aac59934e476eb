"""The crashpoint sweep: kill a run at every reachable crashpoint.

The paper's verdicts are machine-checked against adversaries that may
strike between any two steps; this module points the same adversary at
our *own* recovery machinery.  Named **crashpoints**
(:mod:`repro.resilience.crashpoint`) are compiled into the engine's
durability-critical seams — checkpoint write/rename, journal
append/compaction, pool dispatch/merge, campaign unit boundaries, budget
trips, the job server's store and ledger — and a sweep re-runs a whole
campaign (or server) killing the process at each reachable crashpoint,
then recovers from disk and asserts the final verdicts are
**byte-identical** to an uninterrupted run.

The sweep
---------

:func:`chaos_sweep` runs one crashpoint sweep over a **target**: a
checkpointed CLI campaign (:class:`CampaignTarget`) or the job server
(:class:`repro.serve.chaos.ServerTarget`).  The steps are shared:

1. the target's **baseline** — an uninterrupted run (the campaign's
   stdout bytes, the server's verdict store);
2. a traced **census** of the reachable crashpoints;
3. for each selected (point, hit, mode): arm a fresh run, check that it
   died, let the target **recover** (``--resume`` for a campaign, an
   unarmed restart for the server) and compare against the baseline.

Selection is bounded by ``max_hits_per_point`` with a **seeded**
deterministic sample (first, last, and seeded picks in between), so two
sweeps over the same build test the same schedule.  Armed runs are traced
too: when one exits without reaching its chosen hit (a pooled run's
dispatch count depends on timing), it is re-armed at the last hit that
run did reach, so every kill lands on a position its own run has.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

# rearm_from_env is re-exported only for benchsuite/run.py, which
# imports it from here.
from repro.resilience.crashpoint import (
    ENV_SCOPE,
    ENV_SPECS,
    ENV_TRACE,
    EXIT_STATUS,
    MODE_EXIT,
    MODE_KILL,
    MODE_RAISE,
    rearm_from_env,
)

__all__ = [
    "CampaignTarget",
    "ChaosResult",
    "ChaosSweep",
    "chaos_sweep",
    "rearm_from_env",
]


# -- the crashpoint sweep ----------------------------------------------------


@dataclass(frozen=True)
class ChaosResult:
    """One (point, hit, mode) cycle of a sweep: killed, recovered, and
    matched against the target's baseline."""

    point: str
    hit: int
    mode: str
    killed: bool
    recovered: bool
    matched: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.killed and self.recovered and self.matched

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"[{status}] {self.point}:{self.hit}:{self.mode}"
        return f"{line} ({self.detail})" if self.detail else line


@dataclass
class ChaosSweep:
    """Everything one :func:`chaos_sweep` run produced."""

    target: Any
    reachable: dict = field(default_factory=dict)
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def describe(self) -> str:
        good = sum(1 for r in self.results if r.ok)
        return (
            f"{self.target.baseline_note()}"
            f"{len(self.reachable)} reachable crashpoints, "
            f"{len(self.results)} {self.target.cycle} cycles, "
            f"{good} {self.target.columns[1]}"
        )


def _src_pythonpath(env: dict) -> str:
    """*env*'s ``PYTHONPATH`` with this checkout's ``src/`` in front.

    A child ``python -m repro`` inherits the caller's resolution, and a
    bare checkout works too.
    """
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH")
    return src if not existing else f"{src}{os.pathsep}{existing}"


def _select_hits(count: int, max_hits: int, point: str, seed: int) -> list:
    """Deterministically choose which hit indices of a point to kill at.

    Always the first and (when distinct) the last; interior picks are
    seeded by (seed, point) so sweeps are reproducible.
    """
    if count <= max_hits:
        return list(range(1, count + 1))
    picks = {1, count}
    index = 0
    while len(picks) < max_hits:
        token = f"{seed}:{point}:{index}".encode()
        h = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
        picks.add(2 + h % (count - 2))
        index += 1
    return sorted(picks)


def _read_trace(path: str) -> Counter:
    """Hits per crashpoint name in a trace file (empty when absent)."""
    hits: Counter = Counter()
    if os.path.exists(path):
        with open(path) as fh:
            hits.update(line.strip() for line in fh if line.strip())
    return hits


def _died(mode: str, returncode: int) -> bool:
    """Whether *returncode* is the death an armed *mode* causes."""
    if mode == MODE_KILL:
        return returncode == -signal.SIGKILL
    if mode == MODE_EXIT:
        return returncode == EXIT_STATUS
    return returncode != 0  # raise: any failure is the injection


#: Unarmed resume runs before a campaign's recovery counts as stuck.
#: One normally completes; more tolerate campaigns that legitimately
#: stop early, e.g. budget-limited ones.
RESUME_HOPS = 8


class CampaignTarget:
    """A ``repro`` CLI campaign as a sweep target.

    The baseline is an uninterrupted run's stdout and exit code; an
    armed run is killed with a fresh ``--checkpoint``, then recovered by
    ``--resume`` (or a fresh start when it died before any checkpoint
    bytes reached disk) and its stdout compared byte-for-byte.

    *argv* is the subcommand argv without checkpoint flags, e.g.
    ``["impossibility", "--protocol", "quorum", "--n", "3"]``; *timeout*
    bounds each subprocess.
    """

    modes = (MODE_KILL, MODE_EXIT, MODE_RAISE)
    cycle = "kill/resume"
    columns = ("resumed", "identical")

    def __init__(self, argv: list, timeout: float = 300.0) -> None:
        self.argv = list(argv)
        self.timeout = timeout
        self.baseline: Optional[subprocess.CompletedProcess] = None

    def _run(
        self, flags: list, env_extra: dict
    ) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env.update({ENV_SPECS: "", ENV_TRACE: "", ENV_SCOPE: ""})
        env.update(env_extra)
        env["PYTHONPATH"] = _src_pythonpath(env)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.argv, *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            stdout, stderr = proc.communicate(timeout=self.timeout)
        except BaseException:
            # Timeout, Ctrl-C in the sweep, anything: the child must not
            # outlive this call as an orphan chewing CPU in the background.
            proc.kill()
            proc.wait()
            raise
        return subprocess.CompletedProcess(
            proc.args, proc.returncode, stdout, stderr
        )

    def baseline_note(self) -> str:
        return ""

    def run_baseline(self, workdir: str) -> None:
        ckpt = os.path.join(workdir, "baseline.ckpt")
        self.baseline = self._run(["--checkpoint", ckpt], {})

    def census(self, workdir: str) -> Counter:
        trace = os.path.join(workdir, "trace.txt")
        ckpt = os.path.join(workdir, "census.ckpt")
        self._run(["--checkpoint", ckpt], {ENV_TRACE: trace})
        return _read_trace(trace)

    def arm(self, path: str, spec: str, trace: str) -> tuple:
        ckpt = path + ".ckpt"
        if os.path.exists(ckpt):
            os.remove(ckpt)
        wounded = self._run(
            ["--checkpoint", ckpt], {ENV_SPECS: spec, ENV_TRACE: trace}
        )
        return wounded.returncode, None

    def recover(self, path: str, _armed) -> tuple:
        assert self.baseline is not None
        ckpt = path + ".ckpt"
        for _ in range(RESUME_HOPS):
            flag = "--resume" if os.path.exists(ckpt) else "--checkpoint"
            final = self._run([flag, ckpt], {})
            if final.returncode == self.baseline.returncode:
                break
        else:
            tail = final.stderr[-300:].decode(errors="replace")
            return False, False, (
                f"resume never reached the baseline exit code "
                f"{self.baseline.returncode} (last: {final.returncode}; "
                f"stderr tail: {tail!r})"
            )
        if final.stdout != self.baseline.stdout:
            return True, False, (
                f"stdout diverged: baseline {len(self.baseline.stdout)}B, "
                f"resumed {len(final.stdout)}B"
            )
        return True, True, ""


def chaos_sweep(
    target,
    workdir: Optional[str] = None,
    modes: tuple = (MODE_KILL,),
    max_hits_per_point: int = 3,
    points: Optional[list] = None,
    seed: int = 0,
    on_result=None,
) -> ChaosSweep:
    """Kill *target* at every reachable crashpoint; require recovery.

    A target (:class:`CampaignTarget`, or the job server's
    :class:`repro.serve.chaos.ServerTarget`) supplies the steps that
    differ: ``run_baseline(workdir)``, ``census(workdir)`` (hits per
    reachable crashpoint), ``arm(path, spec, trace)`` (one armed run,
    returning its exit code and whatever ``recover`` needs) and
    ``recover(path, armed)`` (``(recovered, matched, detail)`` against
    the baseline).  Its ``modes`` are the fault modes it accepts.

    Args:
        target: what to kill.
        workdir: directory for checkpoints, state and traces (a fresh
            temporary directory when None).
        modes: fault modes to inject per selected crashpoint.
        max_hits_per_point: how many hits of each crashpoint to pick
            (seeded selection, at least 1).  The first and last hits
            are always taken, so 1 kills at up to two positions.
        points: restrict to these crashpoint names (None = all reachable).
        seed: seed for the interior-hit selection.
        on_result: optional callback fired with each
            :class:`ChaosResult` as it lands (progress reporting).

    Raises:
        ValueError: a mode the target does not accept, no mode, or
            *max_hits_per_point* below 1.  Raised before any run starts.
    """
    bad = [mode for mode in modes if mode not in target.modes]
    if bad or not modes:
        raise ValueError(
            f"bad modes {','.join(modes)!r}: a {target.cycle} sweep "
            f"takes {'/'.join(target.modes)}"
        )
    if max_hits_per_point < 1:
        raise ValueError(
            f"max hits per crashpoint must be >= 1, not {max_hits_per_point}"
        )
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = own_tmp.name
    try:
        target.run_baseline(workdir)
        reachable = target.census(workdir)
        sweep = ChaosSweep(target, dict(sorted(reachable.items())))
        for point, count in sweep.reachable.items():
            if points is not None and point not in points:
                continue
            for hit in _select_hits(count, max_hits_per_point, point, seed):
                for mode in modes:
                    result = _strike(target, workdir, point, hit, mode)
                    sweep.results.append(result)
                    if on_result is not None:
                        on_result(result)
        return sweep
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _strike(target, workdir: str, point: str, hit: int, mode: str):
    """One cycle: arm *target* at (point, hit, mode), check the death,
    recover, and compare against the baseline."""
    path = os.path.join(workdir, f"chaos-{point}.{hit}.{mode}".replace("/", "_"))
    trace = path + ".trace"
    try:
        while True:  # each pass re-arms at a strictly earlier hit
            spec = f"{point}:{hit}:{mode}"
            if os.path.exists(trace):
                os.remove(trace)
            returncode, armed = target.arm(path, spec, trace)
            killed = _died(mode, returncode)
            reached = _read_trace(trace)[point]
            if killed or not 0 < reached < hit:
                break
            # This run hit the point fewer times than the census run
            # did (a pooled run withdraws a decided sweep's remaining
            # shards, so how many it dispatches depends on timing):
            # re-arm at the last hit this run reached.
            hit = reached
    except subprocess.TimeoutExpired as exc:
        return ChaosResult(
            point, hit, mode, killed=False, recovered=False, matched=False,
            detail=f"kill run exceeded the {exc.timeout:g}s timeout",
        )
    if not killed:
        return ChaosResult(
            point, hit, mode, killed=False, recovered=False, matched=False,
            detail=(
                f"expected the process to die at {spec}, got exit "
                f"{returncode}"
            ),
        )
    try:
        recovered, matched, detail = target.recover(path, armed)
    except subprocess.TimeoutExpired as exc:
        recovered, matched = False, False
        detail = f"recovery exceeded the {exc.timeout:g}s timeout"
    return ChaosResult(
        point, hit, mode, killed=True, recovered=recovered, matched=matched,
        detail=detail,
    )
