"""Unit tests for the task checker."""

import pytest

from repro.core.checker import Verdict
from repro.layerings.permutation import PermutationLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.tasks import (
    DecideConstantProtocol,
    DecideOwnInput,
    EpsilonAgreementProtocol,
)
from repro.tasks.catalog import (
    binary_consensus,
    constant_task,
    epsilon_agreement,
    identity_task,
)
from repro.tasks.checker import TaskChecker
from repro.tasks.simplex import Simplex


def perm_layering(protocol):
    return PermutationLayering(AsyncMessagePassingModel(protocol, 3))


def assert_replays(layering, problem, report):
    """The refutation's run starts at its facet's initial state, every
    layer action replays through ``layering.apply``, and the run shows
    the violation: an unacceptable decided simplex, or a closed cycle
    on which some process stays non-failed, undecided and nonfaulty."""
    facet = report.input_facet
    state = layering.model.initial_state(
        [facet.value_of(i) for i in range(problem.n)]
    )
    for execution in filter(None, (report.execution, report.cycle)):
        assert execution.initial == state
        for action, expected in zip(execution.actions, execution.states[1:]):
            state = layering.apply(state, action)
            assert state == expected
    if report.verdict is Verdict.VALIDITY:
        decided = TaskChecker(layering, problem).decided_simplex(state)
        assert not problem.acceptable(facet, decided)
        return
    assert report.verdict is Verdict.DECISION
    cycle = report.cycle
    assert cycle.initial == cycle.final
    assert any(
        all(
            i not in layering.decisions(s) and i not in layering.failed_at(s)
            for s in cycle.states
        )
        and all(i in layering.nonfaulty_under(a) for a in cycle.actions)
        for i in range(problem.n)
    )


class TestPositiveControls:
    def test_identity_satisfied(self):
        layering = perm_layering(DecideOwnInput())
        checker = TaskChecker(layering, identity_task(3))
        report = checker.check_all(layering.model)
        assert report.satisfied

    def test_constant_satisfied(self):
        layering = perm_layering(DecideConstantProtocol())
        checker = TaskChecker(layering, constant_task(3))
        report = checker.check_all(layering.model)
        assert report.satisfied

    def test_epsilon_satisfied_rw(self):
        layering = SynchronicRWLayering(
            SharedMemoryModel(EpsilonAgreementProtocol(), 3)
        )
        checker = TaskChecker(layering, epsilon_agreement(3))
        report = checker.check_all(layering.model)
        assert report.satisfied


class TestNegativeControls:
    def test_quorum_decide_fails_consensus_task(self):
        layering = perm_layering(QuorumDecide(2))
        checker = TaskChecker(layering, binary_consensus(3))
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.VALIDITY
        # the Δ-violation here IS the disagreement: a split decided
        # simplex is not in the consensus output complex
        assert "not acceptable" in report.detail
        assert_replays(layering, binary_consensus(3), report)

    def test_waitforall_fails_decision(self):
        layering = perm_layering(WaitForAll())
        checker = TaskChecker(
            layering, binary_consensus(3), max_states=300_000
        )
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.DECISION
        assert_replays(layering, binary_consensus(3), report)

    def test_constant_protocol_fails_identity_task(self):
        layering = perm_layering(DecideConstantProtocol(0))
        checker = TaskChecker(layering, identity_task(3))
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.VALIDITY
        assert_replays(layering, identity_task(3), report)

    def test_witness_replays(self):
        layering = perm_layering(QuorumDecide(2))
        checker = TaskChecker(layering, binary_consensus(3))
        report = checker.check_all(layering.model)
        state = report.execution.initial
        for action in report.execution.actions:
            state = layering.apply(state, action)
        assert state == report.execution.final
        decided = TaskChecker(
            layering, binary_consensus(3)
        ).decided_simplex(state)
        assert not binary_consensus(3).acceptable(
            report.input_facet, decided
        )


class TestWrongInitialState:
    def test_input_facet_drives_initial(self):
        layering = perm_layering(DecideOwnInput())
        problem = identity_task(3)
        checker = TaskChecker(layering, problem)
        facet = Simplex.from_values([1, 0, 1])
        state = layering.model.initial_state((1, 0, 1))
        report = checker.check(state, facet)
        assert report.satisfied


class TestWriteOnceWitness:
    def test_witness_ends_on_the_revoking_edge(self):
        # x -l-> a -u-> b revokes process 0's decision 0, but b is first
        # discovered by x -r-> b, on which nothing is revoked: a witness
        # built from b's discovery path would not show the violation.
        from repro.core.state import revoked_decision
        from tests.conftest import ToySystem

        system = ToySystem(
            edges={
                "x": [("l", "a"), ("r", "b")],
                "a": [("u", "b")],
                "b": [("s", "b")],
            },
            decisions={"a": {0: 0}, "b": {0: 1, 1: 1}},
        )
        checker = TaskChecker(
            system, binary_consensus(2), preflight=False
        )
        report = checker.check(
            system.state("x"), Simplex.from_values((0, 1))
        )
        assert report.verdict is Verdict.WRITE_ONCE
        execution = report.execution
        for state, action, child in execution.transitions():
            assert (action, child) in system.successors(state)
        assert execution.actions == ("l", "u")
        assert revoked_decision(
            system.decisions(execution.states[-2]),
            system.decisions(execution.final),
        ) is not None
