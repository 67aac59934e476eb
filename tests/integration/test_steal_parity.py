"""Merge parity under adversarial stealing schedules.

The frontier-sharded parallel engine dispatches shards to whichever
worker is idle (pull-based stealing), so the completion order of shards
is a race.  The acceptance bar here: the merged report is *byte
identical* to the sequential engine's for any schedule the scheduler
could produce — we force the point by permuting dispatch priority with
a seeded RNG on every dispatch cycle, and by SIGKILLing a worker
mid-shard so a shard migrates between workers
mid-sweep.
"""

import os
import pickle
import random
import re
import signal

import pytest

from repro.core.checker import ConsensusChecker
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.floodset import FloodSet
from repro.resilience import pool as pool_module
from repro.resilience.pool import PoolConfig

SEEDS = [7, 23, 71, 421, 1009]


def _witness_bytes(report):
    """The byte-parity payload: verdict and witnesses, wall clock
    excluded (it is the one legitimately nondeterministic field)."""
    return pickle.dumps(
        (report.verdict, report.inputs, report.execution, report.cycle),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _scrub_clock(text):
    return re.sub(r"\d+\.\d+s", "_s", text)


def _assert_byte_parity(parallel, sequential):
    assert _witness_bytes(parallel) == _witness_bytes(sequential)
    assert parallel.states_explored == sequential.states_explored
    assert _scrub_clock(parallel.detail) == _scrub_clock(sequential.detail)


@pytest.fixture
def scrambled_schedule(monkeypatch):
    """Permute shard dispatch priority with a seeded RNG.

    The supervisor sorts ready shards by ``(attempt, order)`` before an
    idle worker steals the front; reshuffling every pending shard's
    ``order`` on each dispatch cycle makes the steal sequence an
    arbitrary (but seed-reproducible) permutation — a strictly more
    adversarial schedule than any real race.
    """
    original = pool_module.WorkerPool._dispatch

    def apply(seed):
        rng = random.Random(seed)

        def dispatch(self):
            orders = [pending.order for pending in self._pending]
            rng.shuffle(orders)
            for pending, order in zip(self._pending, orders):
                pending.order = order
            original(self)

        monkeypatch.setattr(pool_module.WorkerPool, "_dispatch", dispatch)

    return apply


class KillOnAssignment(StSynchronousLayering):
    """SIGKILL the worker mid-shard on one input assignment, once: the
    first attempt writes *marker* and dies, the retry (on whichever
    worker steals the orphaned shard) completes."""

    def __init__(self, model, doomed, marker):
        super().__init__(model)
        self.doomed = tuple(doomed)
        self.marker = marker

    def successors(self, state):
        inputs = tuple(local.input for local in state.locals)
        if inputs == self.doomed and not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("first attempt crashed here")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().successors(state)


class TestScrambledSchedules:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_satisfied_sweep_byte_identical(
        self, st_floodset_tight, scrambled_schedule, seed
    ):
        sequential = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        scrambled_schedule(seed)
        parallel = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, workers=3
        )
        assert sequential.satisfied
        _assert_byte_parity(parallel, sequential)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_refuted_sweep_byte_identical(
        self, st_floodset_fast, scrambled_schedule, seed
    ):
        """The refutation witness is the *first* failing assignment in
        sweep order, whichever shard happened to finish first."""
        sequential = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model
        )
        scrambled_schedule(seed)
        parallel = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model, workers=3
        )
        assert sequential.refuted
        _assert_byte_parity(parallel, sequential)


class TestMidShardCrashWithStealing:
    def test_killed_shard_migrates_and_merge_stays_exact(self, tmp_path):
        clean = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
        sequential = ConsensusChecker(clean).check_all(clean.model)
        marker = str(tmp_path / "crashed-once")
        flaky = KillOnAssignment(
            SynchronousModel(FloodSet(2), 3, 1),
            doomed=(0, 1, 1),
            marker=marker,
        )
        parallel = ConsensusChecker(flaky).check_all(
            flaky.model,
            workers=2,
            pool=PoolConfig(workers=2, max_retries=2, retry_backoff=0.01),
        )
        assert os.path.exists(marker)  # the mid-shard kill happened
        _assert_byte_parity(parallel, sequential)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_crash_plus_scrambled_schedule(
        self, tmp_path, scrambled_schedule, seed
    ):
        clean = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
        sequential = ConsensusChecker(clean).check_all(clean.model)
        marker = str(tmp_path / f"crashed-once-{seed}")
        flaky = KillOnAssignment(
            SynchronousModel(FloodSet(2), 3, 1),
            doomed=(1, 0, 1),
            marker=marker,
        )
        scrambled_schedule(seed)
        parallel = ConsensusChecker(flaky).check_all(
            flaky.model,
            workers=3,
            pool=PoolConfig(workers=3, max_retries=2, retry_backoff=0.01),
        )
        assert os.path.exists(marker)
        _assert_byte_parity(parallel, sequential)
