"""Deterministic crashpoint injection and the chaos resume harness.

The paper's verdicts are machine-checked against adversaries that may
strike between any two steps; this module points the same adversary at
our *own* recovery machinery.  Named **crashpoints** are compiled into
the engine's durability-critical seams — checkpoint write/rename,
journal append/compaction, pool dispatch/merge, campaign unit
boundaries, budget trips — and a harness re-runs a whole campaign
killing the process (or raising, or stalling) at each reachable
crashpoint, then resumes from disk and asserts the final verdicts are
**byte-identical** to an uninterrupted run.

Instrumentation contract
------------------------

Engine code calls :func:`crashpoint` with a stable dotted name::

    crashpoint("checkpoint.rename.pre")

When chaos is not armed this is a single attribute load and a falsy
check — cheap enough for durability seams (crashpoints are deliberately
*not* placed in per-state hot loops; per-unit and per-record granularity
is what recovery operates on).

Arming
------

Three ways, composable:

* **Environment** (crosses process boundaries — the harness and CI use
  this): ``REPRO_CRASHPOINTS`` holds ``;``-separated specs
  ``name:hit:mode[:arg]``, e.g. ``journal.append.mid:3:kill`` = on the
  3rd hit of that point, die by SIGKILL.  Modes: ``kill`` (SIGKILL
  yourself — a real ``kill -9``, no cleanup handlers run), ``exit``
  (``os._exit(137)``), ``raise`` (raise :class:`ChaosInjected`),
  ``stall:SECONDS`` (sleep; pairs with SIGTERM tests and stall
  detection).  ``REPRO_CRASHPOINT_TRACE`` names a file to which every
  hit appends one ``name`` line — the harness enumerates reachable
  crashpoints from such a trace.
* **In process** (unit tests): :func:`active_plan` is a context manager
  arming a spec for the current process only.
* **Scope**: by default specs fire only in the *main* process
  (``REPRO_CRASHPOINT_SCOPE=main``) — pool worker processes inherit the
  environment but must not die at engine crashpoints, or a sweep's
  retries would re-kill the re-dispatched unit forever and quarantine
  it, changing verdicts.  Killing the driver exercises resume; killing
  workers is the pool's own (already tested) fault model.  Tests that
  *want* worker deaths set ``REPRO_CRASHPOINT_SCOPE=all``.

Hit counting is per-process and per-name, so a schedule is a pure
function of the (deterministic) execution.

The harness
-----------

:func:`chaos_sweep` drives a CLI campaign (``python -m repro ...``)
through the full kill/resume cycle per reachable crashpoint:

1. run the campaign uninterrupted with a checkpoint — the **baseline**
   stdout bytes;
2. run again with tracing to enumerate reachable crashpoints;
3. for each selected (point, hit): fresh checkpoint, run with the kill
   spec armed, observe the death, then ``--resume`` (or start fresh if
   the process died before any checkpoint bytes reached disk) and
   compare stdout byte-for-byte against the baseline.

Selection is bounded by ``max_hits_per_point`` with a **seeded**
deterministic sample (first, last, and seeded picks in between), so two
sweeps over the same build test the same schedule.  Kill runs are traced
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
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.exitcodes import EXIT_CHAOS_KILLED

__all__ = [
    "ChaosInjected",
    "ChaosResult",
    "CrashSpec",
    "active_plan",
    "chaos_sweep",
    "crashpoint",
    "is_armed",
    "parse_specs",
]

ENV_SPECS = "REPRO_CRASHPOINTS"
ENV_TRACE = "REPRO_CRASHPOINT_TRACE"
ENV_SCOPE = "REPRO_CRASHPOINT_SCOPE"

MODE_KILL = "kill"
MODE_EXIT = "exit"
MODE_RAISE = "raise"
MODE_STALL = "stall"
_MODES = (MODE_KILL, MODE_EXIT, MODE_RAISE, MODE_STALL)

#: The exit status ``os._exit`` uses for mode ``exit`` (mirrors the
#: 128+SIGKILL convention so harnesses treat both deaths alike; the
#: value is shared with the CLI via :mod:`repro.exitcodes`).
EXIT_STATUS = EXIT_CHAOS_KILLED


class ChaosInjected(RuntimeError):
    """Raised by a crashpoint armed in ``raise`` mode."""


@dataclass(frozen=True)
class CrashSpec:
    """One armed crashpoint: fire at the Nth hit of a named point."""

    point: str
    hit: int
    mode: str
    arg: float = 0.0

    def describe(self) -> str:
        suffix = f":{self.arg:g}" if self.mode == MODE_STALL else ""
        return f"{self.point}:{self.hit}:{self.mode}{suffix}"


def parse_specs(raw: str) -> tuple[CrashSpec, ...]:
    """Parse a ``;``-separated ``name:hit:mode[:arg]`` spec string."""
    specs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad crashpoint spec {chunk!r}: want name:hit:mode[:arg]"
            )
        point, hit, mode = parts[0], parts[1], parts[2]
        if mode not in _MODES:
            raise ValueError(
                f"bad crashpoint mode {mode!r} in {chunk!r}: "
                f"choose from {_MODES}"
            )
        arg = float(parts[3]) if len(parts) == 4 else 0.0
        specs.append(CrashSpec(point, int(hit), mode, arg))
    return tuple(specs)


class _ChaosState:
    """Per-process chaos configuration and hit counters."""

    __slots__ = ("specs", "trace_path", "scope", "hits", "fired")

    def __init__(
        self,
        specs: tuple[CrashSpec, ...],
        trace_path: Optional[str],
        scope: str,
    ) -> None:
        self.specs = specs
        self.trace_path = trace_path
        self.scope = scope
        self.hits: Counter = Counter()
        self.fired: list[CrashSpec] = []

    def in_scope(self) -> bool:
        if self.scope == "all":
            return True
        # "main": fire only in the driver process.  Pool workers (and any
        # other multiprocessing children) inherit the environment but
        # must not die at engine crashpoints — their deaths are the
        # pool's fault model, not the resume path's.
        import multiprocessing

        return multiprocessing.parent_process() is None


#: The active per-process state; None means chaos is fully disarmed and
#: :func:`crashpoint` is a single falsy check.
_state: Optional[_ChaosState] = None


def _state_from_env() -> Optional[_ChaosState]:
    raw = os.environ.get(ENV_SPECS, "")
    trace = os.environ.get(ENV_TRACE) or None
    if not raw and not trace:
        return None
    return _ChaosState(
        parse_specs(raw), trace, os.environ.get(ENV_SCOPE, "main")
    )


_state = _state_from_env()


def is_armed() -> bool:
    """Whether any chaos configuration is active in this process."""
    return _state is not None


def rearm_from_env() -> None:
    """Re-read the chaos environment (tests mutate ``os.environ``)."""
    global _state
    _state = _state_from_env()


def crashpoint(name: str) -> None:
    """Declare a named crashpoint; no-op unless chaos is armed.

    When armed *and* in scope: count the hit, append to the trace file
    if tracing, and fire any spec whose (point, hit) matches.
    """
    state = _state
    if state is None:
        return
    if not state.in_scope():
        return
    state.hits[name] += 1
    count = state.hits[name]
    if state.trace_path is not None:
        _trace(state.trace_path, name)
    for spec in state.specs:
        if spec.point == name and spec.hit == count:
            _fire(state, spec)


def _trace(path: str, name: str) -> None:
    # O_APPEND with one small write per hit: concurrent writers (pool
    # supervisor vs. anything else armed) interleave whole lines.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    except OSError:
        return
    try:
        os.write(fd, f"{name}\n".encode())
    finally:
        os.close(fd)


def _fire(state: _ChaosState, spec: CrashSpec) -> None:
    state.fired.append(spec)
    if spec.mode == MODE_KILL:
        # A genuine kill -9: no atexit, no finally blocks, no flushing.
        os.kill(os.getpid(), signal.SIGKILL)
        # Unreachable except on exotic platforms; fall through to _exit.
        os._exit(EXIT_STATUS)
    if spec.mode == MODE_EXIT:
        os._exit(EXIT_STATUS)
    if spec.mode == MODE_RAISE:
        raise ChaosInjected(f"chaos raised at crashpoint {spec.point!r}")
    if spec.mode == MODE_STALL:
        time.sleep(spec.arg if spec.arg > 0 else 3600.0)


@contextmanager
def active_plan(
    raw: str, trace_path: Optional[str] = None, scope: str = "main"
):
    """Arm a crashpoint spec for the current process only.

    Yields the mutable state so tests can inspect ``hits`` / ``fired``.
    Restores the previous (usually disarmed) configuration on exit.
    """
    global _state
    previous = _state
    state = _ChaosState(parse_specs(raw), trace_path, scope)
    _state = state
    try:
        yield state
    finally:
        _state = previous


# -- the chaos resume harness ------------------------------------------------


@dataclass(frozen=True)
class ChaosResult:
    """One crashpoint's kill/resume verdict in a chaos sweep."""

    point: str
    hit: int
    mode: str
    killed: bool
    resumed: bool
    identical: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.killed and self.resumed and self.identical


@dataclass
class ChaosSweep:
    """Everything one :func:`chaos_sweep` run produced."""

    baseline_stdout: bytes
    baseline_returncode: int
    reachable: dict = field(default_factory=dict)
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def describe(self) -> str:
        good = sum(1 for r in self.results if r.ok)
        return (
            f"{len(self.reachable)} reachable crashpoints, "
            f"{len(self.results)} kill/resume cycles, {good} identical"
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


def _run_cli(
    argv: list,
    env_extra: dict,
    timeout: float,
    python: str,
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = _src_pythonpath(env)
    proc = subprocess.Popen(
        [python, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException:
        # Timeout, Ctrl-C in the sweep, anything: the child must not
        # outlive this call as an orphan chewing CPU in the background.
        proc.kill()
        proc.wait()
        raise
    return subprocess.CompletedProcess(
        proc.args, proc.returncode, stdout, stderr
    )


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


def chaos_sweep(
    argv: list,
    workdir: Optional[str] = None,
    modes: tuple = (MODE_KILL,),
    max_hits_per_point: int = 3,
    points: Optional[list] = None,
    seed: int = 0,
    timeout: float = 300.0,
    python: str = sys.executable,
    max_resume_hops: int = 8,
    on_result=None,
) -> ChaosSweep:
    """Kill a campaign at every reachable crashpoint; assert resume parity.

    Args:
        argv: the ``repro`` subcommand argv *without* checkpoint flags —
            e.g. ``["impossibility", "--protocol", "quorum", "--n", "3"]``.
            The harness appends ``--checkpoint``/``--resume`` itself.
        workdir: directory for checkpoints and traces (a fresh temporary
            directory when None).
        modes: fault modes to inject per selected crashpoint
            (``kill`` and/or ``raise``; ``stall`` is for interactive
            shutdown tests, not sweeps).
        max_hits_per_point: cap on kill positions per crashpoint name
            (seeded selection; first and last hits always included).
        points: restrict to these crashpoint names (None = all reachable).
        seed: selection seed (also reused for interior-hit sampling).
        timeout: per-subprocess wall-clock bound.
        python: interpreter to launch.
        max_resume_hops: resume attempts before declaring recovery stuck
            (each hop runs without chaos armed, so one hop normally
            completes; >1 tolerates campaigns that legitimately stop
            early, e.g. budget-limited ones).
        on_result: optional callback fired with each
            :class:`ChaosResult` as it lands (progress reporting).

    Returns:
        A :class:`ChaosSweep` with the baseline, the reachable-point
        census, and one :class:`ChaosResult` per (point, hit, mode).
    """
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = own_tmp.name
    try:
        quiet_env = {ENV_SPECS: "", ENV_TRACE: "", ENV_SCOPE: ""}
        baseline_ckpt = os.path.join(workdir, "baseline.ckpt")
        baseline = _run_cli(
            argv + ["--checkpoint", baseline_ckpt], quiet_env, timeout, python
        )
        sweep = ChaosSweep(
            baseline_stdout=baseline.stdout,
            baseline_returncode=baseline.returncode,
        )

        trace_path = os.path.join(workdir, "trace.txt")
        _run_cli(
            argv + ["--checkpoint", os.path.join(workdir, "census.ckpt")],
            {**quiet_env, ENV_TRACE: trace_path},
            timeout,
            python,
        )
        reachable = _read_trace(trace_path)
        sweep.reachable = dict(sorted(reachable.items()))

        for point in sorted(reachable):
            if points is not None and point not in points:
                continue
            hits = _select_hits(
                reachable[point], max_hits_per_point, point, seed
            )
            for hit in hits:
                for mode in modes:
                    result = _kill_and_resume(
                        argv, workdir, point, hit, mode, sweep,
                        timeout, python, max_resume_hops,
                    )
                    sweep.results.append(result)
                    if on_result is not None:
                        on_result(result)
        return sweep
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _kill_and_resume(
    argv: list,
    workdir: str,
    point: str,
    hit: int,
    mode: str,
    sweep: ChaosSweep,
    timeout: float,
    python: str,
    max_resume_hops: int,
) -> ChaosResult:
    tag = f"{point}.{hit}.{mode}".replace("/", "_")
    ckpt = os.path.join(workdir, f"chaos-{tag}.ckpt")
    trace = os.path.join(workdir, f"chaos-{tag}.trace")
    while True:  # each pass re-arms at a strictly earlier hit
        spec = f"{point}:{hit}:{mode}"
        for stale in (ckpt, trace):
            if os.path.exists(stale):
                os.remove(stale)
        try:
            wounded = _run_cli(
                argv + ["--checkpoint", ckpt],
                {ENV_SPECS: spec, ENV_TRACE: trace, ENV_SCOPE: ""},
                timeout,
                python,
            )
        except subprocess.TimeoutExpired:
            return ChaosResult(
                point, hit, mode, killed=False, resumed=False,
                identical=False,
                detail=f"kill run exceeded the {timeout:g}s timeout",
            )
        if mode == MODE_KILL:
            killed = wounded.returncode == -signal.SIGKILL
        elif mode == MODE_EXIT:
            killed = wounded.returncode == EXIT_STATUS
        else:  # raise: any abnormal, non-signal failure is the injection
            killed = wounded.returncode not in (0,)
        reached = _read_trace(trace)[point]
        if killed or not 0 < reached < hit:
            break
        # This run hit the point fewer times than the census run did (a
        # pooled run withdraws a decided sweep's unstarted shards, so how
        # many it dispatches depends on timing): re-arm at the last hit
        # this run reached.
        hit = reached
    if not killed:
        return ChaosResult(
            point, hit, mode, killed=False, resumed=False, identical=False,
            detail=(
                f"expected the process to die at {spec}, got exit "
                f"{wounded.returncode}"
            ),
        )

    # Resume (or restart when the kill predates any checkpoint bytes).
    final = None
    for _ in range(max_resume_hops):
        if os.path.exists(ckpt):
            resumed_argv = argv + ["--resume", ckpt]
        else:
            resumed_argv = argv + ["--checkpoint", ckpt]
        try:
            final = _run_cli(
                resumed_argv,
                {ENV_SPECS: "", ENV_TRACE: "", ENV_SCOPE: ""},
                timeout,
                python,
            )
        except subprocess.TimeoutExpired:
            return ChaosResult(
                point, hit, mode, killed=True, resumed=False,
                identical=False,
                detail=f"resume run exceeded the {timeout:g}s timeout",
            )
        if final.returncode == sweep.baseline_returncode:
            break
    if final is None or final.returncode != sweep.baseline_returncode:
        return ChaosResult(
            point, hit, mode, killed=True, resumed=False, identical=False,
            detail=(
                f"resume never reached the baseline exit code "
                f"{sweep.baseline_returncode} (last: "
                f"{None if final is None else final.returncode}; stderr "
                f"tail: "
                f"{(final.stderr[-300:].decode(errors='replace') if final else '')!r})"
            ),
        )
    identical = final.stdout == sweep.baseline_stdout
    detail = ""
    if not identical:
        detail = (
            f"stdout diverged: baseline {len(sweep.baseline_stdout)}B, "
            f"resumed {len(final.stdout)}B"
        )
    return ChaosResult(
        point, hit, mode, killed=True, resumed=True, identical=identical,
        detail=detail,
    )
