"""The crashpoint framework: specs, arming, scope, and firing modes.

The full kill/resume sweeps live in the integration suite
(``tests/integration/test_chaos_recovery.py``); this file pins down the
injection mechanics those sweeps rely on.
"""

import multiprocessing
import os
import signal
import subprocess
import time

import pytest

import repro.resilience.chaos as chaos
from repro.resilience.chaos import _select_hits
from repro.resilience.crashpoint import (
    ENV_SCOPE,
    ENV_SPECS,
    ENV_TRACE,
    ChaosInjected,
    CrashSpec,
    active_plan,
    crashpoint,
    is_armed,
    parse_specs,
    rearm_from_env,
)
from repro.serve.chaos import ServerTarget


class TestSpecs:
    def test_parse_round_trip(self):
        specs = parse_specs("a.b:3:kill; c.d:1:stall:2.5")
        assert specs == (
            CrashSpec("a.b", 3, "kill", 0.0),
            CrashSpec("c.d", 1, "stall", 2.5),
        )
        assert specs[1].describe() == "c.d:1:stall:2.5"

    def test_empty_chunks_skipped(self):
        assert parse_specs(";;  ;") == ()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("just-a-name")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("a:1:explode")

    @pytest.mark.parametrize("chunk", ["a:0:kill", "a:-2:raise"])
    def test_hit_below_one_rejected(self, chunk):
        # Such a spec would never fire, so the run would test nothing.
        with pytest.raises(ValueError, match=chunk):
            parse_specs(f"ok:1:kill;{chunk}")


class TestCrashpoint:
    def test_disarmed_is_a_noop(self):
        assert not is_armed()
        crashpoint("anything.at.all")  # must not raise, count, or trace

    def test_raise_mode_fires_on_the_exact_hit(self):
        with active_plan("p.q:2:raise") as state:
            crashpoint("p.q")  # hit 1: no fire
            with pytest.raises(ChaosInjected):
                crashpoint("p.q")  # hit 2: fire
            assert state.hits["p.q"] == 2
            assert [s.hit for s in state.fired] == [2]

    def test_hits_counted_per_name(self):
        with active_plan("") as state:
            crashpoint("a")
            crashpoint("a")
            crashpoint("b")
            assert state.hits == {"a": 2, "b": 1}

    def test_stall_mode_sleeps(self):
        with active_plan("s:1:stall:0.05"):
            started = time.monotonic()
            crashpoint("s")
            assert time.monotonic() - started >= 0.04

    def test_trace_file_records_every_hit(self, tmp_path):
        trace = tmp_path / "trace.txt"
        with active_plan("", trace_path=str(trace)):
            crashpoint("x.y")
            crashpoint("x.y")
            crashpoint("z")
        assert trace.read_text().splitlines() == ["x.y", "x.y", "z"]

    def test_plan_restored_after_context(self):
        with active_plan("p:1:raise"):
            assert is_armed()
        assert not is_armed()


def _child_hits_crashpoint(env: dict) -> None:
    os.environ.update(env)
    rearm_from_env()
    crashpoint("engine.point")


class TestScope:
    """Workers inherit the chaos environment but must not die at engine
    crashpoints — a killed worker's unit would be retried, re-killed and
    quarantined, changing verdicts."""

    def _run_child(self, env: dict) -> int:
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_child_hits_crashpoint, args=(env,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode is not None
        return proc.exitcode

    def test_main_scope_spares_child_processes(self):
        code = self._run_child(
            {ENV_SPECS: "engine.point:1:kill", ENV_SCOPE: "main"}
        )
        assert code == 0

    def test_all_scope_kills_child_processes(self):
        code = self._run_child(
            {ENV_SPECS: "engine.point:1:kill", ENV_SCOPE: "all"}
        )
        assert code == -signal.SIGKILL

    def test_kill_mode_is_a_real_sigkill(self):
        ctx = multiprocessing.get_context("fork")

        def die():
            # scope="all": this body runs in a multiprocessing child,
            # which the default main-only scope would deliberately spare.
            with active_plan("p:1:kill", scope="all"):
                crashpoint("p")

        proc = ctx.Process(target=die)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL


class TestHitSelection:
    def test_small_counts_take_everything(self):
        assert _select_hits(3, 5, "p", seed=0) == [1, 2, 3]

    def test_large_counts_keep_first_and_last(self):
        picks = _select_hits(100, 4, "p", seed=0)
        assert len(picks) == 4
        assert picks[0] == 1 and picks[-1] == 100
        assert all(1 <= h <= 100 for h in picks)

    def test_selection_is_deterministic(self):
        assert _select_hits(50, 3, "p", seed=1) == _select_hits(
            50, 3, "p", seed=1
        )

    def test_selection_varies_with_seed(self):
        varied = {
            tuple(_select_hits(1000, 5, "p", seed=s)) for s in range(8)
        }
        assert len(varied) > 1


class TestRearm:
    """A kill run that never reaches its chosen hit (a pooled run may
    dispatch fewer shards than the census run did) is re-armed at the
    last hit that run reached.  The shared loop does this for every
    target; each test drives it for the campaign and the server."""

    @staticmethod
    def _fake_run(reached, calls):
        """A run whose armed point is hit *reached* times; it dies when
        the armed hit is among them.  Returns the exit code."""

        def run(env):
            calls.append(env.get(ENV_SPECS, ""))
            armed = parse_specs(env.get(ENV_SPECS, ""))
            if not armed:  # the recovery run
                return 0
            (spec,) = armed
            with open(env[ENV_TRACE], "w") as fh:
                fh.write(f"{spec.point}\n" * min(reached, spec.hit))
            return -signal.SIGKILL if spec.hit <= reached else 0

        return run

    @staticmethod
    def _target(name, run):
        if name == "campaign":
            target = chaos.CampaignTarget(["lower-bound"])
            target.baseline = subprocess.CompletedProcess([], 0, b"out", b"")
            target._run = lambda flags, env: subprocess.CompletedProcess(
                flags, run(env), b"out", b""
            )
        else:
            target = ServerTarget(battery=[])
            target._cycle = lambda dirpath, env: ([], None, run(env))
        return target

    def _kill(self, tmp_path, reached, hit):
        """Per target: the cycle's result and the specs each run armed."""
        outcomes = []
        for name in ("campaign", "server"):
            calls = []
            target = self._target(name, self._fake_run(reached, calls))
            workdir = tmp_path / name
            workdir.mkdir()
            result = chaos._strike(
                target, str(workdir), "pool.dispatch", hit, "kill"
            )
            outcomes.append((result, calls))
        return outcomes

    def test_short_run_rearms_at_its_last_hit(self, tmp_path):
        for result, calls in self._kill(tmp_path, reached=3, hit=5):
            assert result.ok
            assert (result.hit, result.killed) == (3, True)
            assert calls == [
                "pool.dispatch:5:kill", "pool.dispatch:3:kill", ""
            ]

    def test_reached_hit_is_not_rearmed(self, tmp_path):
        for result, calls in self._kill(tmp_path, reached=5, hit=5):
            assert result.ok
            assert calls == ["pool.dispatch:5:kill", ""]

    def test_unreached_point_still_fails(self, tmp_path):
        for result, calls in self._kill(tmp_path, reached=0, hit=1):
            assert not result.killed
            assert "got exit 0" in result.detail
            assert calls == ["pool.dispatch:1:kill"]
