"""Parallel ``check_all``: identical verdicts, crash-tolerant sweeps.

The tentpole guarantee: ``check_all(..., workers=N)`` is a pure function
of its inputs — verdict, witness, statistics and checkpoint are byte-for
-byte what the sequential sweep produces, for every verdict class and
across model families.  On top of that, a worker SIGKILLed mid-assignment
is retried transparently, and an assignment that crashes deterministically
is quarantined as UNKNOWN-with-cause without failing the other
assignments.
"""

import os
import re
import signal

from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker, Verdict
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.pool import FAULT_CRASH, PoolConfig


def _scrub_clock(text):
    """Blank the wall-clock fragment of a report detail — the one
    legitimately nondeterministic part of an otherwise exact merge."""
    return re.sub(r"\d+\.\d+s", "_s", text)


def _assert_reports_equal(parallel, sequential):
    assert parallel.verdict is sequential.verdict
    assert parallel.inputs == sequential.inputs
    assert _scrub_clock(parallel.detail) == _scrub_clock(sequential.detail)
    assert parallel.states_explored == sequential.states_explored
    if sequential.execution is None:
        assert parallel.execution is None
    else:
        assert parallel.execution.actions == sequential.execution.actions
        assert parallel.execution.states == sequential.execution.states
    if sequential.cycle is None:
        assert parallel.cycle is None
    else:
        assert parallel.cycle.actions == sequential.cycle.actions


class TestParallelEqualsSequential:
    """Acceptance: identical results for at least two model families."""

    def test_synchronous_family_satisfied(self, st_floodset_tight):
        sequential = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        parallel = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, workers=4
        )
        assert sequential.satisfied
        _assert_reports_equal(parallel, sequential)

    def test_synchronous_family_refuted(self, st_floodset_fast):
        sequential = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model
        )
        parallel = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model, workers=4
        )
        assert sequential.refuted
        _assert_reports_equal(parallel, sequential)

    def test_shared_memory_family(self, quorum_synchronic_rw):
        sequential = ConsensusChecker(quorum_synchronic_rw).check_all(
            quorum_synchronic_rw.model
        )
        parallel = ConsensusChecker(quorum_synchronic_rw).check_all(
            quorum_synchronic_rw.model, workers=4
        )
        _assert_reports_equal(parallel, sequential)

    def test_mobile_family(self, mobile_floodset):
        sequential = ConsensusChecker(mobile_floodset).check_all(
            mobile_floodset.model
        )
        parallel = ConsensusChecker(mobile_floodset).check_all(
            mobile_floodset.model, workers=2
        )
        _assert_reports_equal(parallel, sequential)

    def test_unknown_checkpoint_parity(self, st_floodset_tight):
        """A budget that trips mid-sweep must produce the same UNKNOWN —
        same detail, same resumable cursor — in both engines."""
        sequential = ConsensusChecker(
            st_floodset_tight, max_states=10
        ).check_all(st_floodset_tight.model)
        parallel = ConsensusChecker(
            st_floodset_tight, max_states=10
        ).check_all(st_floodset_tight.model, workers=3)
        assert sequential.inconclusive
        assert parallel.verdict is Verdict.UNKNOWN
        assert _scrub_clock(parallel.detail) == _scrub_clock(
            sequential.detail
        )
        assert parallel.states_explored == sequential.states_explored
        assert (
            parallel.checkpoint.assignment_index
            == sequential.checkpoint.assignment_index
        )
        assert (
            parallel.checkpoint.states_total
            == sequential.checkpoint.states_total
        )

    def test_resume_from_parallel_checkpoint(self, st_floodset_tight):
        """A parallel UNKNOWN's checkpoint resumes to the sequential
        baseline's verdict (the two engines interoperate)."""
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        stopped = ConsensusChecker(
            st_floodset_tight, max_states=10
        ).check_all(st_floodset_tight.model, workers=2)
        assert stopped.inconclusive
        resumed = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, checkpoint=stopped.checkpoint
        )
        assert resumed.verdict is baseline.verdict
        assert resumed.states_explored == baseline.states_explored

    def test_workers_one_is_the_sequential_engine(self, st_floodset_fast):
        sequential = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model
        )
        one = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model, workers=1
        )
        _assert_reports_equal(one, sequential)


class KillOnAssignment(StSynchronousLayering):
    """An ``S^t`` layering whose successor function SIGKILLs the process
    on one chosen input assignment — a stand-in for a native crash
    (segfault, OOM kill) striking mid-assignment.

    With *marker* set the crash happens only while the marker file is
    absent (the first attempt writes it, so the retry succeeds); without
    a marker the crash is deterministic and the assignment must be
    quarantined.
    """

    def __init__(self, model, doomed, marker=None):
        super().__init__(model)
        self.doomed = tuple(doomed)
        self.marker = marker

    def successors(self, state):
        inputs = tuple(local.input for local in state.locals)
        if inputs == self.doomed:
            if self.marker is None:
                os.kill(os.getpid(), signal.SIGKILL)
            elif not os.path.exists(self.marker):
                with open(self.marker, "w") as fh:
                    fh.write("first attempt crashed here")
                os.kill(os.getpid(), signal.SIGKILL)
        return super().successors(state)


class TestCrashTolerance:
    def test_sigkill_mid_assignment_retries_to_success(self, tmp_path):
        """One transient kill: the sweep's verdict is the clean run's."""
        marker = str(tmp_path / "crashed-once")
        clean = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
        baseline = ConsensusChecker(clean).check_all(clean.model)
        flaky = KillOnAssignment(
            SynchronousModel(FloodSet(2), 3, 1), doomed=(0, 1, 1),
            marker=marker,
        )
        report = ConsensusChecker(flaky).check_all(
            flaky.model,
            workers=2,
            pool=PoolConfig(workers=2, max_retries=2, retry_backoff=0.01),
        )
        assert report.verdict is baseline.verdict
        assert report.states_explored == baseline.states_explored
        assert os.path.exists(marker)  # the kill really happened

    def test_deterministic_crasher_quarantined_as_unknown(self):
        """A permanently crashing assignment: UNKNOWN with the fault
        cause and a resumable cursor, not an aborted sweep."""
        doomed = KillOnAssignment(
            SynchronousModel(FloodSet(2), 3, 1), doomed=(1, 1, 1)
        )
        report = ConsensusChecker(doomed).check_all(
            doomed.model,
            workers=2,
            pool=PoolConfig(workers=2, max_retries=1, retry_backoff=0.01),
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.inputs == (1, 1, 1)
        assert "quarantined" in report.detail
        assert FAULT_CRASH in report.detail
        # Every assignment before the doomed one completed and counted.
        assert report.states_explored > 0
        assert report.checkpoint is not None
        assert report.checkpoint.assignment_index == 7  # (1,1,1) is last


class TestShardingKnobs:
    """One-assignment shards change the schedule, never the verdict: the
    ordered-span merge is schedule-independent."""

    def test_finest_shards_identical_verdicts(self, st_floodset_tight):
        sequential = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        parallel = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, workers=3
        )
        _assert_reports_equal(parallel, sequential)


class TestOrderedWithdrawal:
    """A parallel sweep is merged as soon as its verdict is decided and
    its unstarted shards are withdrawn; the report does not change.  Pool
    unit keys are ``(sweep, lo)``; a ``check_all`` is a one-sweep run."""

    @staticmethod
    def _sweep(system):
        reports = []
        report = ConsensusChecker(system).check_all(
            system.model,
            workers=2,
            pool=PoolConfig(workers=2, report_sink=reports.append),
        )
        (pool_report,) = reports
        return report, pool_report

    def test_refuting_sweep_withdraws_unread_shards(self):
        # EIG with 2 rounds in S^t (n=4, t=2) is one round below the
        # t+1 bound: it first disagrees on assignment 8 of 16.
        system = make_st_system(EIG(2), 4, 2)
        sequential = ConsensusChecker(system).check_all(system.model)
        assert sequential.verdict is Verdict.AGREEMENT
        decided = 8
        parallel, pool_report = self._sweep(system)
        _assert_reports_equal(parallel, sequential)
        ran = sorted(lo for _, lo in pool_report.outcomes)
        withdrawn = [lo for _, lo in pool_report.withdrawn]
        assert ran[:decided] == list(range(decided))
        assert withdrawn
        assert min(withdrawn) >= decided
        assert sorted(ran + withdrawn) == list(range(16))

    def test_satisfied_grid_withdraws_nothing(self):
        # The E14 grid: EIG(3) in S^t (n=4, t=2) satisfies consensus, so
        # no shard is decided early and every one of them runs.
        system = make_st_system(EIG(3), 4, 2)
        sequential = ConsensusChecker(system).check_all(system.model)
        parallel, pool_report = self._sweep(system)
        assert sequential.satisfied
        _assert_reports_equal(parallel, sequential)
        assert pool_report.withdrawn == ()
        assert sorted(lo for _, lo in pool_report.outcomes) == list(range(16))
