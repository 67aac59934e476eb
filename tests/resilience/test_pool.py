"""The fault-isolated worker pool: crashes, hangs, retries, quarantine.

The acceptance bar for the pool itself (the checker-level guarantees are
in ``tests/core/test_parallel_checker.py``): a worker SIGKILLed mid-unit
is respawned and the unit retried to success with the kill on record; a
unit that fails deterministically is quarantined without disturbing its
neighbours; a hung unit is detected and killed by the per-unit timeout;
and the merged outcome mapping is keyed and complete regardless of
completion order.
"""

import logging
import multiprocessing
import os
import signal
import time

import pytest

from repro.log import get_logger
from repro.resilience.pool import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_TIMEOUT,
    PoolConfig,
    WorkerPool,
    pool_config_for,
    run_units,
)


# -- module-level unit functions (workers import them by reference) ----------

def _square(payload):
    return payload * payload


def _kill_once(payload):
    """SIGKILL our own process the first time; succeed once the marker
    file exists (i.e. on the retry)."""
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1 died here")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _always_raise(payload):
    raise RuntimeError(f"deterministic failure for {payload!r}")


def _hang_forever(payload):
    while True:
        time.sleep(0.5)


def _crash_or_square(payload):
    if payload == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 2


def _pid(payload):
    return payload, os.getpid()


def _hang_if(payload):
    if payload == "hang":
        _hang_forever(payload)
    return os.getpid()


def _wait_exited(pid, timeout=10.0):
    """Block until *pid* is gone or a zombie; False on timeout."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return True
        if state in ("Z", "X"):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _mark(payload):
    """Append one line to this unit's marker file, optionally linger or
    fail: the marker proves whether (and how often) the unit ran."""
    marker_dir, key, linger, fail = payload
    with open(os.path.join(marker_dir, key), "a") as fh:
        fh.write("ran\n")
    time.sleep(linger)
    if fail:
        raise RuntimeError(f"{key} fails")
    return key


def _mark_after(payload):
    """Wait until the *gate* path exists, then :func:`_mark`: a unit whose
    gate is never created can only end by being stopped."""
    gate, mark_payload = payload
    while not os.path.exists(gate):
        time.sleep(0.01)
    return _mark(mark_payload)


class _GateOnRetry(logging.Handler):
    """Creates the *gate* file when the pool logs that it scheduled a
    retry: the event the gated unit waits for."""

    def __init__(self, gate):
        super().__init__(logging.DEBUG)
        self.gate = gate

    def emit(self, record):
        if "retrying" in record.getMessage():
            self.gate.touch()


def _gated_units(tmp_path, keys, blocked=()):
    """``_mark_after`` units marking into *tmp_path*; the *blocked* ones
    wait on a gate that is never created."""
    never = str(tmp_path / "never")
    return [
        (key, (never if key in blocked else str(tmp_path),
               (str(tmp_path), key, 0.0, False)))
        for key in keys
    ]


class TestHappyPath:
    def test_all_units_complete_keyed(self):
        units = [(f"u{i}", i) for i in range(8)]
        report = run_units(_square, units, PoolConfig(workers=3))
        assert list(report.outcomes) == [f"u{i}" for i in range(8)]
        for i in range(8):
            outcome = report.outcomes[f"u{i}"]
            assert outcome.ok and outcome.value == i * i
            assert outcome.attempts == 1 and outcome.faults == ()
        assert report.quarantined == [] and report.retried == []
        assert report.workers == 3

    def test_serial_fallback_same_shape(self):
        units = [(f"u{i}", i) for i in range(4)]
        report = run_units(_square, units, PoolConfig(workers=1))
        assert report.workers == 0
        assert [report.value(k) for k, _ in units] == [0, 1, 4, 9]

    def test_empty_units(self):
        report = run_units(_square, [], PoolConfig(workers=2))
        assert report.outcomes == {}

    def test_on_complete_sees_every_unit_once(self):
        seen = []
        units = [(f"u{i}", i) for i in range(6)]
        run_units(
            _square,
            units,
            PoolConfig(workers=2),
            on_complete=lambda outcome: seen.append(outcome.key),
        )
        assert sorted(seen) == sorted(k for k, _ in units)


class TestCrashRecovery:
    def test_sigkill_mid_unit_retries_to_success(self, tmp_path):
        marker = str(tmp_path / "died-once")
        units = [("victim", (marker, 42)), ("bystander", (str(tmp_path / "x"), 7))]
        report = run_units(
            _kill_once,
            units,
            PoolConfig(workers=2, max_retries=2, retry_backoff=0.01),
        )
        victim = report.outcomes["victim"]
        assert victim.ok and victim.value == 42
        assert victim.attempts >= 2
        assert any(f.kind == FAULT_CRASH for f in victim.faults)

    def test_deterministic_crasher_quarantined_not_fatal(self, tmp_path):
        units = [("ok1", "a"), ("crash", "crash"), ("ok2", "b")]
        report = run_units(
            _crash_or_square,
            units,
            PoolConfig(workers=2, max_retries=1, retry_backoff=0.01),
        )
        assert report.quarantined == ["crash"]
        crashed = report.outcomes["crash"]
        assert crashed.attempts == 2  # original + one retry
        assert all(f.kind == FAULT_CRASH for f in crashed.faults)
        assert FAULT_CRASH in crashed.cause()
        # The neighbours finished normally despite the repeated kills.
        assert report.value("ok1") == "aa"
        assert report.value("ok2") == "bb"

    def test_value_raises_for_quarantined(self):
        report = run_units(
            _always_raise,
            [("bad", 1)],
            PoolConfig(workers=2, max_retries=0),
        )
        with pytest.raises(ValueError, match="quarantined"):
            report.value("bad")


class TestExceptionsAndTimeouts:
    def test_unit_exception_records_traceback(self):
        report = run_units(
            _always_raise,
            [("bad", "payload-x"), ("good", None)],
            PoolConfig(workers=2, max_retries=1, retry_backoff=0.01),
        )
        bad = report.outcomes["bad"]
        assert bad.quarantined and bad.attempts == 2
        assert all(f.kind == FAULT_ERROR for f in bad.faults)
        assert "deterministic failure" in bad.faults[-1].detail

    def test_serial_engine_retries_exceptions_too(self):
        report = run_units(
            _always_raise, [("bad", 1)], PoolConfig(workers=1, max_retries=2)
        )
        bad = report.outcomes["bad"]
        assert bad.quarantined and bad.attempts == 3

    def test_hung_unit_killed_by_timeout(self):
        report = run_units(
            _hang_forever,
            [("hung", None)],
            PoolConfig(
                workers=2,
                unit_timeout=0.5,
                max_retries=0,
                heartbeat_interval=0.05,
            ),
        )
        hung = report.outcomes["hung"]
        assert hung.quarantined
        assert any(f.kind == FAULT_TIMEOUT for f in hung.faults)


class TestRetryJitter:
    """Retry backoff carries deterministic seeded jitter (RetryPolicy):
    different units spread out instead of retrying in lockstep, yet the
    same configuration reproduces the same delays run after run."""

    def _serial_delays(self, monkeypatch, seed=0):
        import repro.resilience.pool as pool_module

        slept: list[float] = []
        monkeypatch.setattr(
            pool_module.time, "sleep", lambda s: slept.append(s)
        )
        run_units(
            _always_raise,
            [("u:a", 1), ("u:b", 2), ("u:c", 3)],
            PoolConfig(
                workers=1,
                max_retries=2,
                retry_backoff=0.1,
                retry_seed=seed,
            ),
        )
        monkeypatch.undo()
        return slept

    def test_delays_differ_across_units(self, monkeypatch):
        slept = self._serial_delays(monkeypatch)
        first_retry = slept[0::2]  # attempt-1 delay of each unit
        assert len(set(first_retry)) == len(first_retry)

    def test_delays_reproduce_across_runs(self, monkeypatch):
        assert self._serial_delays(monkeypatch) == self._serial_delays(
            monkeypatch
        )

    def test_delays_vary_with_seed(self, monkeypatch):
        assert self._serial_delays(monkeypatch, seed=0) != self._serial_delays(
            monkeypatch, seed=1
        )

    def test_delays_stay_in_jitter_band(self, monkeypatch):
        slept = self._serial_delays(monkeypatch)
        # Two retries per unit: attempt 1 in [0.1, 0.15), attempt 2 in
        # [0.2, 0.3) with the default jitter of 0.5.
        for first, second in zip(slept[0::2], slept[1::2]):
            assert 0.1 <= first < 0.15
            assert 0.2 <= second < 0.3

    def test_policy_mirrors_config(self):
        config = PoolConfig(
            retry_backoff=0.25, max_retries=3, retry_jitter=0.1, retry_seed=9
        )
        policy = config.retry_policy()
        assert policy.base_delay == 0.25
        assert policy.max_retries == 3
        assert policy.jitter == 0.1
        assert policy.seed == 9

    def test_supervisor_uses_the_same_policy(self, tmp_path):
        """The parallel arm must retry with the identical seeded delay
        the serial arm uses — one formula, one policy object."""
        config = PoolConfig(workers=2, max_retries=1, retry_backoff=0.01)
        report = run_units(
            _kill_once,
            [("u", (str(tmp_path / "marker"), "ok"))],
            config,
        )
        outcome = report.outcomes["u"]
        assert outcome.ok and outcome.attempts == 2
        expected = config.retry_policy().delay("u", 1)
        assert expected >= 0.01  # the policy governed the retry spacing


class TestConfig:
    def test_pool_config_for_none_is_sequential(self):
        assert pool_config_for(None) is None

    def test_pool_config_for_threads_knobs(self):
        config = pool_config_for(4, unit_timeout=2.5, max_retries=3)
        assert config.workers == 4
        assert config.unit_timeout == 2.5
        assert config.max_retries == 3

    def test_pool_config_for_defaults(self):
        config = pool_config_for(2)
        assert config.unit_timeout is None
        assert config.max_retries == PoolConfig().max_retries

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PoolConfig(workers=-1)
        with pytest.raises(ValueError):
            PoolConfig(max_retries=-1)

    def test_describe_mentions_faults(self, tmp_path):
        report = run_units(
            _crash_or_square,
            [("crash", "crash"), ("ok", "z")],
            PoolConfig(workers=2, max_retries=0),
        )
        text = report.describe()
        assert "quarantined" in text and "faults" in text


class TestStructuredCategories:
    """Faults carry the raising exception's fully qualified class name.

    Regression: callers used to substring-match the traceback text in
    ``cause()`` to tell budget exhaustion from genuine crashes, which any
    message mentioning an exception name could spoof.
    """

    def test_helper_accepts_instances_and_classes(self):
        from repro.core.valence import ExplorationLimitExceeded
        from repro.resilience.pool import exception_category

        assert exception_category(ValueError("x")) == "builtins.ValueError"
        assert exception_category(ValueError) == "builtins.ValueError"
        assert (
            exception_category(ExplorationLimitExceeded)
            == "repro.core.valence.ExplorationLimitExceeded"
        )

    def test_parallel_error_outcome_carries_category(self):
        report = run_units(
            _always_raise, [("bad", 1)], PoolConfig(workers=2, max_retries=0)
        )
        bad = report.outcomes["bad"]
        assert bad.error_category() == "builtins.RuntimeError"
        assert all(f.category == "builtins.RuntimeError" for f in bad.faults)

    def test_serial_error_outcome_carries_category(self):
        report = run_units(
            _always_raise, [("bad", 1)], PoolConfig(workers=1, max_retries=0)
        )
        assert report.outcomes["bad"].error_category() == "builtins.RuntimeError"

    def test_success_has_no_category(self):
        report = run_units(_square, [("ok", 3)], PoolConfig(workers=2))
        assert report.outcomes["ok"].error_category() is None

    def test_process_crash_has_no_category(self):
        report = run_units(
            _crash_or_square,
            [("crash", "crash")],
            PoolConfig(workers=2, max_retries=0),
        )
        crashed = report.outcomes["crash"]
        assert crashed.quarantined
        assert crashed.error_category() is None


# -- shared context, spawn accounting ---------------------------------------

class ScalingContext:
    """Picklable shared context: scales every payload by ``factor``."""

    def __init__(self, factor):
        self.factor = factor


def _scale(payload, context):
    return payload * context.factor


class TestSharedContext:
    def test_context_threaded_to_every_unit(self):
        units = [(f"u{i}", i) for i in range(6)]
        report = run_units(
            _scale, units, PoolConfig(workers=2), context=ScalingContext(10)
        )
        assert [report.value(k) for k, _ in units] == [
            0, 10, 20, 30, 40, 50,
        ]

    def test_serial_path_shares_the_contract(self):
        report = run_units(
            _scale, [("u", 7)], PoolConfig(workers=1),
            context=ScalingContext(3),
        )
        assert report.value("u") == 21


class TestSpawnAccounting:
    def test_parallel_run_reports_spawn_window(self):
        report = run_units(
            _square, [(f"u{i}", i) for i in range(4)], PoolConfig(workers=2)
        )
        assert 0.0 < report.spawn_seconds <= report.seconds

    def test_serial_run_has_no_spawn_cost(self):
        report = run_units(_square, [("u", 2)], PoolConfig(workers=1))
        assert report.spawn_seconds == 0.0

    def test_report_sink_receives_the_final_report(self):
        seen = []
        config = PoolConfig(workers=2, report_sink=seen.append)
        report = run_units(_square, [("u", 3)], config)
        assert seen == [report]

    def test_report_sink_fires_on_serial_and_empty_runs(self):
        seen = []
        run_units(
            _square, [("u", 3)], PoolConfig(workers=1, report_sink=seen.append)
        )
        run_units(
            _square, [], PoolConfig(workers=2, report_sink=seen.append)
        )
        assert len(seen) == 2 and seen[1].outcomes == {}


class TestWithdrawal:
    """``on_complete`` may return unit keys to withdraw: pending units
    are dropped undispatched, running ones are stopped."""

    @staticmethod
    def _units(tmp_path, count, linger=None):
        linger = linger or {}
        return [
            (f"u{i}", (str(tmp_path), f"u{i}", linger.get(f"u{i}", 0.0), False))
            for i in range(count)
        ]

    @staticmethod
    def _ran(tmp_path):
        return sorted(path.name for path in tmp_path.iterdir())

    @pytest.mark.parametrize("workers", [2, 1])
    def test_withdrawn_units_never_run(self, tmp_path, workers):
        # With two workers u0 and u1 start together; whichever finishes
        # first withdraws u3-u5 before the next dispatch, so only u2 is
        # dispatched after it.
        calls = []

        def on_complete(outcome):
            calls.append(outcome.key)
            return ["u3", "u4", "u5"] if len(calls) == 1 else None

        report = run_units(
            _mark,
            self._units(tmp_path, 6),
            PoolConfig(workers=workers),
            on_complete=on_complete,
        )
        assert self._ran(tmp_path) == ["u0", "u1", "u2"]
        assert list(report.outcomes) == ["u0", "u1", "u2"]
        assert report.withdrawn == ("u3", "u4", "u5")
        assert sorted(calls) == ["u0", "u1", "u2"]
        assert "6 units" in report.describe()
        assert "3 withdrawn" in report.describe()

    def test_pending_retry_is_withdrawn(self, tmp_path):
        """``bad`` fails at once and waits out a long backoff; ``slow``
        then finishes and withdraws it, so the retry never runs.  ``slow``
        waits on a gate file that the supervisor's log of the scheduled
        retry creates, so it cannot finish before ``bad`` failed.  (The
        serial engine retries inline, so it never holds a pending retry
        when ``on_complete`` fires.  The unit timeout bounds the test
        should the gate never open.)"""
        gate = tmp_path / "gate"
        units = [
            ("bad", (str(tmp_path), (str(tmp_path), "bad", 0.0, True))),
            ("slow", (str(gate), (str(tmp_path), "slow", 0.0, False))),
        ]
        logger = get_logger("pool")
        level = logger.level
        opener = _GateOnRetry(gate)
        logger.addHandler(opener)
        logger.setLevel(logging.DEBUG)
        try:
            report = run_units(
                _mark_after,
                units,
                PoolConfig(
                    workers=2, max_retries=1, retry_backoff=30.0,
                    unit_timeout=30.0,
                ),
                on_complete=lambda o: ["bad"] if o.key == "slow" else None,
            )
        finally:
            logger.removeHandler(opener)
            logger.setLevel(level)
        assert (tmp_path / "bad").read_text() == "ran\n"  # one attempt
        assert report.withdrawn == ("bad",)
        assert list(report.outcomes) == ["slow"]
        assert [(f.key, f.attempt) for f in report.faults] == [("bad", 1)]
        assert report.seconds < 30.0

    @pytest.mark.parametrize("workers", [1])
    def test_running_unit_completes(self, tmp_path, workers):
        # The serial engine never holds a running unit when on_complete
        # fires: u0 finishes, withdraws every unit, and is reported.
        calls = []

        def on_complete(outcome):
            calls.append(outcome.key)
            return [f"u{i}" for i in range(4)] if len(calls) == 1 else None

        report = run_units(
            _mark,
            self._units(tmp_path, 4),
            PoolConfig(workers=workers),
            on_complete=on_complete,
        )
        assert self._ran(tmp_path) == ["u0"]
        assert list(report.outcomes) == ["u0"]
        assert report.value("u0") == "u0"
        assert report.withdrawn == ("u1", "u2", "u3")
        assert report.faults == ()

    def test_running_unit_is_stopped(self, tmp_path):
        """u0 and u1 are dispatched together; u1 waits on a gate that is
        never created, so it ends only if the withdrawal stops it.  (The
        unit timeout bounds the test should the stop fail.)"""
        calls = []

        def on_complete(outcome):
            calls.append(outcome.key)
            return [f"u{i}" for i in range(4)] if len(calls) == 1 else None

        report = run_units(
            _mark_after,
            _gated_units(tmp_path, [f"u{i}" for i in range(4)], {"u1"}),
            PoolConfig(workers=2, unit_timeout=30.0),
            on_complete=on_complete,
        )
        assert calls == ["u0"]
        assert self._ran(tmp_path) == ["u0"]
        assert list(report.outcomes) == ["u0"]
        assert report.withdrawn == ("u1", "u2", "u3")
        assert report.faults == ()

    @pytest.mark.parametrize("workers", [2, 1])
    def test_unknown_or_finished_keys_are_noops(self, tmp_path, workers):
        # Each completion withdraws an unknown key and every key resolved
        # so far, itself included (a running key would be stopped).
        resolved = []

        def on_complete(outcome):
            resolved.append(outcome.key)
            return ["nope", *resolved]

        report = run_units(
            _mark,
            self._units(tmp_path, 4),
            PoolConfig(workers=workers),
            on_complete=on_complete,
        )
        assert self._ran(tmp_path) == ["u0", "u1", "u2", "u3"]
        assert list(report.outcomes) == ["u0", "u1", "u2", "u3"]
        assert report.withdrawn == ()


class TestLongLivedPool:
    """One :class:`WorkerPool` serves many runs on the same workers."""

    @staticmethod
    def _assert_no_unit_state(pool):
        assert pool._units == [] and pool._pending == []
        assert pool._outcomes == {} and pool._unit_faults == {}
        assert pool._dispatched_at == {} and pool._withdrawn == set()
        assert pool._faults == []

    def test_many_runs_share_the_workers(self):
        with WorkerPool(_pid, PoolConfig(workers=2)).open() as pool:
            pids = set()
            for run in range(10):
                report = pool.run([(f"r{run}u{i}", i) for i in range(3)])
                assert [o.value[0] for o in report.outcomes.values()] == [
                    0, 1, 2
                ]
                pids.update(o.value[1] for o in report.outcomes.values())
                self._assert_no_unit_state(pool)
            assert len(pids) <= 2 and os.getpid() not in pids
            assert (pool.spawned, pool.respawned) == (2, 0)

    def test_a_key_may_recur_across_runs(self):
        with WorkerPool(_pid, PoolConfig(workers=1)).open() as pool:
            first = pool.run([("k", 1)])
            again = pool.run([("k", 2)])
        assert first.value("k")[0] == 1 and again.value("k")[0] == 2
        assert again.outcomes["k"].attempts == 1 and again.faults == ()

    def test_only_the_first_run_pays_the_spawn(self):
        with WorkerPool(_pid, PoolConfig(workers=2)).open() as pool:
            cold = pool.run([("a", 1), ("b", 2)])
            warm = pool.run([("a", 1), ("b", 2)])
        assert 0.0 < cold.spawn_seconds <= cold.seconds
        assert warm.spawn_seconds == 0.0

    def test_idle_killed_worker_is_replaced_without_a_fault(self):
        with WorkerPool(_pid, PoolConfig(workers=1)).open() as pool:
            _, victim = pool.run([("u", 1)]).value("u")
            os.kill(victim, signal.SIGKILL)
            assert _wait_exited(victim)
            report = pool.run([("u", 2)])
            assert report.faults == ()
            outcome = report.outcomes["u"]
            assert outcome.ok and outcome.attempts == 1
            assert outcome.value[1] != victim
            assert (pool.spawned, pool.respawned) == (2, 1)

    def test_mid_run_sigkill_retries_on_a_respawned_worker(self, tmp_path):
        marker = str(tmp_path / "died")
        survived = tmp_path / "survived"
        survived.write_text("no kill on this unit")
        with WorkerPool(_kill_once, PoolConfig(workers=1)).open() as pool:
            assert pool.run([("warm", (str(survived), 0))]).value("warm") == 0
            report = pool.run([("u", (marker, 7))])
            outcome = report.outcomes["u"]
            assert outcome.ok and outcome.value == 7 and outcome.attempts == 2
            assert [f.kind for f in report.faults] == [FAULT_CRASH]
            assert (pool.spawned, pool.respawned) == (2, 1)
            self._assert_no_unit_state(pool)
            after = pool.run([("v", (marker, 8))])
            assert after.value("v") == 8 and after.faults == ()

    def test_runs_on_after_a_withdrawn_unit_is_stopped(self, tmp_path):
        config = PoolConfig(workers=2, unit_timeout=30.0)
        with WorkerPool(_mark_after, config).open() as pool:
            stopped = pool.run(
                _gated_units(tmp_path, ["u0", "u1"], {"u1"}),
                on_complete=lambda outcome: ["u1"],
            )
            assert list(stopped.outcomes) == ["u0"]
            assert stopped.withdrawn == ("u1",) and stopped.faults == ()
            self._assert_no_unit_state(pool)
            # No unit remained, so the stopped worker is replaced when
            # the next run starts, with no fault charged to it.
            after = pool.run(_gated_units(tmp_path, ["v0", "v1", "v2"]))
            assert [o.value for o in after.outcomes.values()] == [
                "v0", "v1", "v2"
            ]
            assert after.faults == ()
            assert (pool.spawned, pool.respawned) == (3, 1)

    def test_per_run_unit_timeout(self):
        config = PoolConfig(workers=1, max_retries=0)
        with WorkerPool(_hang_if, config).open() as pool:
            timed_out = pool.run([("h", "hang")], unit_timeout=0.3)
            assert [f.kind for f in timed_out.faults] == [FAULT_TIMEOUT]
            assert timed_out.outcomes["h"].quarantined
            # The override lasts one run: the next has no deadline.
            assert pool.run([("ok", "fine")]).outcomes["ok"].ok
            assert pool.respawned == 1

    def test_close_is_idempotent_and_reaps_every_worker(self):
        pool = WorkerPool(_pid, PoolConfig(workers=2)).open()
        report = pool.run([(i, i) for i in range(4)])
        pids = {o.value[1] for o in report.outcomes.values()}
        pool.close()
        pool.close()
        live = {child.pid for child in multiprocessing.active_children()}
        assert not pids & live
        assert all(_wait_exited(pid, timeout=0.0) for pid in pids)
        with pytest.raises(RuntimeError):
            pool.run([("late", 1)])
