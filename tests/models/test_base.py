"""Unit tests for the model base class and the synchronous round helper."""

import pytest

from repro.core.state import GlobalState
from repro.models.base import Model, round_program, synchronous_round
from repro.models.mobile import MobileModel
from repro.protocols.base import MessagePassingProtocol
from repro.protocols.floodset import FloodSet

NONE_LOST = frozenset()


class Scripted(MessagePassingProtocol):
    """Sends the messages its local state names and records what it got.

    A local state is ``(outgoing_items, received_items)``; counts the
    protocol calls so tests can see the round's sharing.
    """

    def __init__(self):
        self.calls = {"outgoing": 0, "transition": 0}

    def initial_local(self, i, n, input_value):
        return (tuple(input_value), ())

    def decision(self, i, n, local):
        return None

    def outgoing(self, i, n, local):
        self.calls["outgoing"] += 1
        return dict(local[0])

    def transition(self, i, n, local, received):
        self.calls["transition"] += 1
        return ((), tuple(received.items()))


class _Round(Model):
    """A bare model whose primitive is the per-destination lost sets."""

    def initial_state(self, inputs):
        raise NotImplementedError

    def actions(self, state):
        return []

    def apply(self, state, action):
        raise NotImplementedError

    def failed_at(self, state):
        return frozenset()

    def decisions(self, state):
        return {}


def _round(n, outgoing, *losses):
    """Run one round of *outgoing* (``{sender: {dest: payload}}``) for
    each lost-senders rule; the received items of every endpoint."""
    protocol = Scripted()
    state = GlobalState(
        "env",
        tuple((tuple(outgoing.get(i, {}).items()), ()) for i in range(n)),
    )
    endpoints = synchronous_round(
        _Round(n), protocol, state,
        round_program([(lost,) for lost in losses]),
        lambda lost: ("env", lost),
    )
    return [
        {i: dict(end.local(i)[1]) for i in range(n)} for end in endpoints
    ], protocol.calls


class TestDeliverRound:
    def test_basic_delivery(self):
        outgoing = {0: {1: "a", 2: "b"}, 1: {0: "c"}}
        (received,), _ = _round(3, outgoing, (NONE_LOST,) * 3)
        assert received[1] == {0: "a"}
        assert received[2] == {0: "b"}
        assert received[0] == {1: "c"}

    def test_drops_applied(self):
        outgoing = {0: {1: "a", 2: "b"}}
        lost = (NONE_LOST, frozenset({0}), NONE_LOST)
        (received,), _ = _round(3, outgoing, lost)
        assert received[1] == {}
        assert received[2] == {0: "b"}

    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-message"):
            _round(2, {0: {0: "x"}}, (NONE_LOST,) * 2)

    def test_unknown_destination_rejected(self):
        with pytest.raises(ValueError, match="unknown destination"):
            _round(2, {0: {5: "x"}}, (NONE_LOST,) * 2)

    def test_empty_round(self):
        (received,), _ = _round(2, {}, (NONE_LOST,) * 2)
        assert received == {0: {}, 1: {}}

    def test_round_shared_across_rules(self):
        # Three rules, two distinct: each sender's outgoing runs once; a
        # receiver transitions once per distinct set of senders it hears
        # from (losing a message nobody sent changes nothing).
        outgoing = {0: {1: "a", 2: "b"}, 1: {0: "c", 2: "d"}}
        clean = (NONE_LOST,) * 3
        lose_0_to_1 = (frozenset({2}), frozenset({0}), NONE_LOST)
        received, calls = _round(3, outgoing, clean, lose_0_to_1, clean)
        assert received[0] == received[2] == {
            0: {1: "c"}, 1: {0: "a"}, 2: {0: "b", 1: "d"},
        }
        assert received[1] == {0: {1: "c"}, 1: {}, 2: {0: "b", 1: "d"}}
        assert calls == {"outgoing": 3, "transition": 4}


class TestModelDefaults:
    def test_initial_states_enumerates_domain(self):
        model = MobileModel(FloodSet(2), 2)
        states = model.initial_states((0, 1))
        assert len(states) == 4
        assert len(set(states)) == 4

    def test_initial_states_custom_domain(self):
        model = MobileModel(FloodSet(2), 2)
        states = model.initial_states(("a", "b", "c"))
        assert len(states) == 9

    def test_envs_agree_default_is_equality(self):
        model = MobileModel(FloodSet(2), 2)
        assert model.envs_agree_modulo("x", "x", 0)
        assert not model.envs_agree_modulo("x", "y", 0)

    def test_n_lower_bound(self):
        with pytest.raises(ValueError, match="n >= 2"):
            MobileModel(FloodSet(2), 1)

    def test_successors_pairs(self):
        model = MobileModel(FloodSet(2), 2)
        state = model.initial_state((0, 1))
        succs = model.successors(state)
        assert len(succs) == len(model.actions(state))
        for action, child in succs:
            assert model.apply(state, action) == child

    def test_nonfaulty_under_default(self):
        class Dummy(Model):
            def initial_state(self, inputs):
                raise NotImplementedError

            def actions(self, state):
                return []

            def apply(self, state, action):
                raise NotImplementedError

            def failed_at(self, state):
                return frozenset()

            def decisions(self, state):
                return {}

        assert Dummy(3).nonfaulty_under("anything") == frozenset({0, 1, 2})
