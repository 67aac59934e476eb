"""Unit tests for the t-resilient synchronous model (Section 6)."""

from itertools import combinations, product

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import NO_FAILURE, SynchronousModel, fail_action
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet


@pytest.fixture
def model():
    return SynchronousModel(FloodSet(2), 3, 1)


@pytest.fixture
def model_t2():
    return SynchronousModel(FloodSet(3), 4, 2)


class TestConstruction:
    def test_t_range_enforced(self):
        with pytest.raises(ValueError):
            SynchronousModel(FloodSet(2), 3, 0)
        with pytest.raises(ValueError):
            SynchronousModel(FloodSet(2), 3, 3)

    def test_initial_state_env(self, model):
        state = model.initial_state((0, 1, 1))
        assert model.failed_at(state) == frozenset()

    def test_wrong_env_rejected(self, model):
        from repro.core.state import GlobalState

        with pytest.raises(ValueError):
            model.failed_at(GlobalState("bogus", ("a", "b", "c")))


class TestActions:
    def test_action_count_no_failures(self, model):
        state = model.initial_state((0, 1, 1))
        # 1 (no failure) + 3 processes * (2^2 - 1) blocked subsets = 10
        assert len(model.actions(state)) == 10

    def test_clean_crash_restriction(self):
        model = SynchronousModel(
            FloodSet(2), 3, 1, clean_crashes_only=True
        )
        state = model.initial_state((0, 1, 1))
        # 1 + 3 (each process crashes cleanly) = 4
        assert len(model.actions(state)) == 4

    def test_budget_exhausted_only_no_failure(self, model):
        state = model.initial_state((0, 1, 1))
        failed = model.apply(state, fail_action((0, frozenset({1, 2}))))
        assert model.actions(failed) == [NO_FAILURE]

    def test_two_new_failures_when_t2(self, model_t2):
        state = model_t2.initial_state((0, 1, 1, 0))
        actions = model_t2.actions(state)
        doubles = [a for a in actions if len(a) == 2]
        assert doubles  # simultaneous failures exist in the full model

    def test_actions_pinned_in_order(self, model_t2):
        # The failure-free round, then every assignment of a nonempty
        # blocked set to each group of newly failing processes: groups by
        # size then lexicographically, blocked-set choices in the product
        # order of increasing bitmask over the other processes.
        state = model_t2.initial_state((0, 1, 1, 0))

        def blocked(j):
            others = [i for i in range(4) if i != j]
            return [
                frozenset(o for b, o in enumerate(others) if mask >> b & 1)
                for mask in range(1, 8)
            ]

        expected = [NO_FAILURE] + [
            frozenset(zip(group, choice))
            for size in (1, 2)
            for group in combinations(range(4), size)
            for choice in product(*(blocked(j) for j in group))
        ]
        actions = model_t2.actions(state)
        assert len(actions) == 323
        assert actions == expected
        assert actions[1] == fail_action((0, {1}))
        assert actions[28] == fail_action((3, {0, 1, 2}))
        assert actions[29] == fail_action((0, {1}), (1, {0}))
        assert actions[-1] == fail_action((2, {0, 1, 3}), (3, {0, 1, 2}))


class TestApply:
    def test_silencing_forever(self, model):
        state = model.initial_state((0, 1, 1))
        failed = model.apply(state, fail_action((0, frozenset({1}))))
        assert model.failed_at(failed) == frozenset({0})
        # next round: 0's messages dropped everywhere even with NO_FAILURE
        nxt = model.apply(failed, NO_FAILURE)
        # process 2 heard 0 in round 1 (only 1 was blocked), then nobody
        # hears 0 directly in round 2 — but 2 relays 0's value.
        assert 0 in nxt.local(1).known  # relayed via 2

    def test_refailing_rejected(self, model):
        state = model.initial_state((0, 1, 1))
        failed = model.apply(state, fail_action((0, frozenset({1}))))
        with pytest.raises(ValueError):
            model.apply(failed, fail_action((0, frozenset({2}))))

    def test_budget_exceeded_rejected(self, model):
        state = model.initial_state((0, 1, 1))
        failed = model.apply(state, fail_action((0, frozenset({1}))))
        with pytest.raises(ValueError):
            model.apply(failed, fail_action((1, frozenset({2}))))

    def test_failed_process_still_receives(self, model):
        state = model.initial_state((0, 1, 1))
        failed = model.apply(state, fail_action((0, frozenset({1, 2}))))
        # 0 is silenced but receives: it learns 1's value
        assert failed.local(0).known == frozenset({0, 1})

    def test_omission_subset_delivery(self, model):
        state = model.initial_state((0, 1, 1))
        nxt = model.apply(state, fail_action((0, frozenset({1}))))
        assert nxt.local(1).known == frozenset({1})
        assert nxt.local(2).known == frozenset({0, 1})


class TestFloodSetCorrectness:
    def test_clean_run_unanimity(self, model):
        state = model.initial_state((0, 1, 1))
        for _ in range(2):
            state = model.apply(state, NO_FAILURE)
        assert model.decisions(state) == {0: 0, 1: 0, 2: 0}

    def test_decisions_respect_failures(self, model):
        # classic scenario: 0 fails round 1 reaching only process 2
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, fail_action((0, frozenset({1}))))
        state = model.apply(state, NO_FAILURE)
        decisions = model.decisions(state)
        # 2 rounds = t+1: all non-failed agree (2 relayed the 0)
        nonfailed = {i: v for i, v in decisions.items() if i != 0}
        assert len(set(nonfailed.values())) == 1


class TestNonfaultyUnder:
    def test_new_failures_excluded(self, model):
        action = fail_action((1, frozenset({0})))
        assert model.nonfaulty_under(action) == frozenset({0, 2})

    def test_no_failure_keeps_all(self, model):
        assert model.nonfaulty_under(NO_FAILURE) == frozenset({0, 1, 2})


class TestRoundSharing:
    """One synchronous round per state, whatever the layer's width."""

    def test_t_plus_1_sweep_call_counts(self):
        # The t+1 tightness sweep: EIG(3) in S^t at n=4, t=2.  Per-action
        # rounds made 61,952 transition and outgoing calls and 72,624
        # decisions reads; one round per state and one decisions read per
        # state bring these to ~16.6k, ~10.3k and ~9.1k.
        calls = {"transition": 0, "outgoing": 0, "decisions": 0}

        class CountingEIG(EIG):
            def transition(self, i, n, local, received):
                calls["transition"] += 1
                return super().transition(i, n, local, received)

            def outgoing(self, i, n, local):
                calls["outgoing"] += 1
                return super().outgoing(i, n, local)

        class CountingModel(SynchronousModel):
            def decisions(self, state):
                calls["decisions"] += 1
                return super().decisions(state)

        model = CountingModel(CountingEIG(3), 4, 2)
        report = ConsensusChecker(StSynchronousLayering(model)).check_all(
            model
        )
        assert report.verdict is Verdict.SATISFIED
        assert report.states_explored == 8128
        assert calls["transition"] <= 17_000
        assert calls["outgoing"] <= 10_500
        assert calls["decisions"] <= 9_500
