"""Tests for the t-round synchronous task drivers (Lemmas 7.4/7.5)."""

import pytest

from repro.analysis.sync_tasks import (
    check_solves_in_rounds,
    lemma_7_5_consistency,
)
from repro.core.checker import Verdict
from repro.protocols.floodset import FloodSet
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


class TestPositiveInstances:
    @pytest.mark.parametrize(
        "task_factory,protocol_factory,rounds",
        [
            (identity_task, DecideOwnInput, 0),
            (constant_task, DecideConstantProtocol, 0),
            (epsilon_agreement, EpsilonAgreementProtocol, 1),
        ],
        ids=["identity-0r", "constant-0r", "epsilon-1r"],
    )
    def test_solved_within_rounds(self, task_factory, protocol_factory, rounds):
        task = task_factory(3)
        report = check_solves_in_rounds(
            task, protocol_factory(), t=1, rounds=rounds
        )
        assert report.satisfied, report.detail
        assert lemma_7_5_consistency(task, report, t=1)

    def test_round_bound_enforced(self):
        """Epsilon agreement is NOT solved in zero rounds by the quorum
        protocol (nobody has heard anything yet)."""
        report = check_solves_in_rounds(
            epsilon_agreement(3), EpsilonAgreementProtocol(), t=1, rounds=0
        )
        assert report.verdict is Verdict.DECISION
        assert "undecided after 0 round" in report.detail

    def test_round_bound_breach_replays(self):
        """FloodSet(2) needs two rounds; its one-round breach is a run of
        one layer from the facet's initial state, ending undecided."""
        from repro.analysis.sync_lower_bound import make_st_system

        report = check_solves_in_rounds(
            binary_consensus(3), FloodSet(2), t=1, rounds=1
        )
        assert report.verdict is Verdict.DECISION
        layering = make_st_system(FloodSet(2), 3, 1)
        facet = report.input_facet
        state = layering.model.initial_state(
            [facet.value_of(i) for i in range(3)]
        )
        execution = report.execution
        assert execution.initial == state
        assert execution.length == 1
        for action in execution.actions:
            state = layering.apply(state, action)
        assert state == execution.final
        failed = layering.failed_at(state)
        decided = layering.decisions(state)
        assert any(
            i not in decided for i in range(3) if i not in failed
        )

    def test_round_bound_budget_trip_raises(self):
        from repro.analysis.sync_lower_bound import make_st_system
        from repro.analysis.sync_tasks import _round_bound_breach
        from repro.core.valence import ExplorationLimitExceeded
        from repro.resilience.budget import Budget

        with pytest.raises(ExplorationLimitExceeded):
            _round_bound_breach(
                make_st_system(FloodSet(2), 3, 1),
                binary_consensus(3),
                rounds=2,
                budget=Budget(max_states=3),
            )


class TestNegativeControls:
    def test_consensus_task_fails_in_one_round(self):
        """FloodSet(1) terminates in one round but its decided simplexes
        violate the consensus task's Δ — the operational face of
        consensus not being 1-thick connected."""
        report = check_solves_in_rounds(
            binary_consensus(3), FloodSet(1), t=1, rounds=1
        )
        assert report.verdict is Verdict.VALIDITY

    def test_consistency_vacuous_on_failure(self):
        report = check_solves_in_rounds(
            binary_consensus(3), FloodSet(1), t=1, rounds=1
        )
        assert lemma_7_5_consistency(binary_consensus(3), report, t=1)

    def test_consensus_two_rounds_t1_solves_and_is_2_thick(self):
        """With t+1 = 2 rounds FloodSet solves consensus-as-a-task; Lemma
        7.5 then requires 2-thick-connectivity — which consensus HAS
        (any two output facets share the empty (n-2)=1-size... rather:
        with k=2 the required shared face size is n-k = 1, and the all-0
        and all-1 facets share nothing, so consensus is NOT 2-thick
        for n=3... but solvability needed t+1 > t rounds, so Lemma 7.5
        (a t-round statement) says nothing about it — consistency is
        only asserted for runs deciding within t rounds."""
        report = check_solves_in_rounds(
            binary_consensus(3), FloodSet(2), t=1, rounds=2
        )
        assert report.satisfied
        # Lemma 7.5 does NOT apply (2 rounds > t=1); the task is indeed
        # not 1-thick connected, and that is consistent because the
        # premise (decided within t rounds) fails:
        one_round = check_solves_in_rounds(
            binary_consensus(3), FloodSet(2), t=1, rounds=1
        )
        assert one_round.verdict is Verdict.DECISION
