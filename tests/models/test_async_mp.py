"""Unit tests for the asynchronous message-passing model."""

from itertools import product

import pytest

from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    NO_OUTBOX,
    flush_action,
    recv_action,
    stage_action,
)
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.floodset import FloodSet


@pytest.fixture
def model():
    return AsyncMessagePassingModel(QuorumDecide(2), 3)


class TestPrimitives:
    def test_initial_state(self, model):
        state = model.initial_state((0, 1, 1))
        assert model.bag(state) == {}
        assert model.at_phase_boundary(state)

    def test_stage_parks_outbox(self, model):
        state = model.initial_state((0, 1, 1))
        staged = model.apply(state, stage_action(0))
        assert model.outbox(staged, 0) is not NO_OUTBOX
        assert model.bag(staged) == {}  # nothing sent yet

    def test_double_stage_rejected(self, model):
        state = model.initial_state((0, 1, 1))
        staged = model.apply(state, stage_action(0))
        with pytest.raises(ValueError):
            model.apply(staged, stage_action(0))

    def test_flush_requires_stage(self, model):
        state = model.initial_state((0, 1, 1))
        with pytest.raises(ValueError):
            model.apply(state, flush_action(0))

    def test_flush_fills_channels(self, model):
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, stage_action(0))
        state = model.apply(state, flush_action(0))
        bag = model.bag(state)
        assert set(bag) == {(0, 1), (0, 2)}

    def test_recv_consumes_only_own_channels(self, model):
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, stage_action(0))
        state = model.apply(state, flush_action(0))
        state = model.apply(state, recv_action(1))
        assert set(model.bag(state)) == {(0, 2)}
        assert (0, 0) in model.proto_local(state, 1).seen

    def test_empty_recv_is_legal(self, model):
        state = model.initial_state((0, 1, 1))
        after = model.apply(state, recv_action(0))
        assert model.bag(after) == {}

    def test_actions_reflect_outbox(self, model):
        state = model.initial_state((0, 1, 1))
        assert stage_action(0) in model.actions(state)
        staged = model.apply(state, stage_action(0))
        actions = model.actions(staged)
        assert flush_action(0) in actions
        assert stage_action(0) not in actions


class TestStageContentSemantics:
    def test_stage_content_frozen_at_stage_time(self, model):
        """Messages carry the *stage-time* local state, even if the
        process receives before flushing (the immediate-snapshot rule)."""
        state = model.initial_state((0, 1, 1))
        # p1 sends its initial seen-set into the bag
        state = model.apply(state, stage_action(1))
        state = model.apply(state, flush_action(1))
        # p0 stages FIRST, then receives p1's message, then flushes
        state = model.apply(state, stage_action(0))
        state = model.apply(state, recv_action(0))
        state = model.apply(state, flush_action(0))
        # p0's own local now knows p1's value...
        assert (1, 1) in model.proto_local(state, 0).seen
        # ...but the message p0 flushed carries its STAGE-time content.
        payload = model.bag(state)[(0, 2)][0]
        assert payload == frozenset({(0, 0)})

    def test_local_phase_order_deliver_then_send_content(self, model):
        """local_phase: stage (content), recv, flush — the delivered
        messages influence the *next* phase's content."""
        state = model.initial_state((0, 1, 1))
        state = model.local_phase(state, 1)
        state = model.local_phase(state, 0)  # p0 hears p1
        # p0's NEXT phase forwards the merged set
        state = model.local_phase(state, 0)
        state = model.apply(state, recv_action(2))
        seen = model.proto_local(state, 2).seen
        assert (1, 1) in seen


class TestChannelCompression:
    def test_consecutive_duplicates_collapse(self):
        model = AsyncMessagePassingModel(WaitForAll(), 3)
        state = model.initial_state((0, 1, 1))
        # p0's seen-set never changes while nobody answers: repeated
        # phases send identical payloads, which must not grow the channel.
        for _ in range(4):
            state = model.local_phase(state, 0)
        bag = model.bag(state)
        assert len(bag[(0, 1)]) == 1
        assert len(bag[(0, 2)]) == 1

    def test_distinct_payloads_preserved(self, model):
        state = model.initial_state((0, 1, 1))
        state = model.local_phase(state, 1)  # p1 sends {1:1}
        state = model.local_phase(state, 0)  # p0 hears, sends {0,1} merged
        state = model.local_phase(state, 0)  # p0's set unchanged: collapsed
        state = model.local_phase(state, 1)  # p1 still unchanged? it heard 0
        bag = model.bag(state)
        # channel 0 -> 2 holds p0's two *distinct* payloads
        assert len(bag[(0, 2)]) == 2


class TestMisc:
    def test_self_message_rejected(self):
        class Selfish(FloodSet):
            def outgoing(self, i, n, local):
                return {i: local.known}

        model = AsyncMessagePassingModel(Selfish(2), 3)
        state = model.initial_state((0, 1, 1))
        with pytest.raises(ValueError):
            model.apply(state, stage_action(0))

    @pytest.mark.parametrize("dest", [3, -1])
    def test_message_to_unknown_destination_rejected(self, dest):
        # A scratch bag has one slot per channel (sender, dest) with
        # 0 <= dest < n; a destination outside that has no channel.
        class Astray(FloodSet):
            def outgoing(self, i, n, local):
                return {dest: local.known}

        model = AsyncMessagePassingModel(Astray(2), 3)
        state = model.initial_state((0, 1, 1))
        with pytest.raises(ValueError, match="unknown destination"):
            model.apply(state, stage_action(0))

    def test_no_finite_failure(self, model):
        state = model.initial_state((0, 1, 1))
        assert model.failed_at(state) == frozenset()

    def test_nonfaulty_under_primitive(self, model):
        assert model.nonfaulty_under(recv_action(2)) == frozenset({2})

    def test_pending_for(self, model):
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, stage_action(0))
        state = model.apply(state, flush_action(0))
        pending = model.pending_for(state, 1)
        assert list(pending) == [0]


class TestPrefixSharing:
    """A layer's expansions are folded along their shared prefixes."""

    def test_valence_per3_call_counts(self):
        # Exact valence over Con_0 of S^per for QuorumDecide(2) at n=3.
        # Folding each layer action's 5-9 primitives from scratch made
        # 54,384 transition and outgoing calls and 5,980 decisions reads;
        # one prefix tree per state with per-call memos, and one
        # decisions read per state, bring these to ~7.5k, ~2.5k and 2,990.
        calls = {"transition": 0, "outgoing": 0, "decisions": 0}

        class CountingQuorum(QuorumDecide):
            def transition(self, i, n, local, received):
                calls["transition"] += 1
                return super().transition(i, n, local, received)

            def outgoing(self, i, n, local):
                calls["outgoing"] += 1
                return super().outgoing(i, n, local)

        class CountingModel(AsyncMessagePassingModel):
            def decisions(self, state):
                calls["decisions"] += 1
                return super().decisions(state)

        layering = PermutationLayering(CountingModel(CountingQuorum(2), 3))
        analyzer = ValenceAnalyzer(layering)
        results = [
            analyzer.valence(layering.model.initial_state(inputs))
            for inputs in product((0, 1), repeat=3)
        ]
        assert sum(result.bivalent for result in results) == 3
        assert analyzer.explored_states == 2990
        assert calls["transition"] <= 7_600
        assert calls["outgoing"] <= 2_500
        assert calls["decisions"] <= 3_000
