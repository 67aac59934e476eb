"""The crashpoint hook: named points where an armed process dies.

Engine code calls :func:`crashpoint` with a stable dotted name::

    crashpoint("journal.compact.rename.pre")

When chaos is not armed this is a single attribute load and a falsy
check — cheap enough for durability seams (crashpoints are deliberately
*not* placed in per-state hot loops; per-unit and per-record granularity
is what recovery operates on).  The hook imports nothing of the package,
so the engine can call it; the sweep that arms it lives in
:mod:`repro.resilience.chaos`.

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
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.exitcodes import EXIT_CHAOS_KILLED

__all__ = [
    "ChaosInjected",
    "CrashSpec",
    "active_plan",
    "crashpoint",
    "is_armed",
    "parse_specs",
    "rearm_from_env",
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
        if int(hit) < 1:
            raise ValueError(
                f"bad crashpoint hit {hit!r} in {chunk!r}: hits count "
                f"from 1"
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
