"""The batch layer fold equals the one-primitive-at-a-time fold.

``Layering.apply`` hands a whole layer expansion to ``Model.apply_many``,
which the async-MP, shared-memory and snapshot models run on scratch
locals, building one ``GlobalState`` at the end.
``verify_layering_embedding`` still steps through ``Model.apply`` one
primitive at a time.  So over a bounded BFS of every layering over those
three models and every registry protocol, the two folds must reach
equal, equally hashed endpoints.  Illegal primitives must raise the
same ``ValueError`` on both paths, including in the middle of a batch.

``Layering.successors`` runs a layer compiled in the layering's
constructor (``Model.compile``) at each state (``Model.run``).  The
synchronous and mobile models answer with one shared round per state;
the other three step each shared prefix of the layer's expansions once.
So over a bounded BFS of every layering, each child must equal, with an
equal hash, the endpoint of its own action folded alone, and an illegal
primitive must raise the same ``ValueError`` inside a batch as alone,
including after a prefix it shares with a legal expansion.  Each
compiled layer must list exactly the actions and expansions that
``layer_actions`` and ``expand`` give at the states with its key.
"""

from collections import deque
from itertools import combinations

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.analysis.statistics import FilteredLayering
from repro.core.state import GlobalState
from repro.layerings.base import verify_layering_embedding
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.st_synchronous import SATURATED, StSynchronousLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    recv_action,
    stage_action,
)
from repro.models.mobile import MobileModel, omit_action, prefix_action
from repro.models.shared_memory import SharedMemoryModel, step_action
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    update_action,
)
from repro.models.sync import (
    NO_FAILURE,
    SynchronousModel,
    fail_action,
    sync_env,
)
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.protocols.registry import PROTOCOLS

#: States expanded per (protocol, layering, n); every layer action of
#: each is checked.
MAX_STATES = 200

#: The models whose ``apply_many`` is a batch fold on scratch locals; the
#: others keep the default fold of ``apply``, which is the path
#: ``verify_layering_embedding`` already takes.
BATCH_MODELS = (
    AsyncMessagePassingModel, SharedMemoryModel, SnapshotMemoryModel,
)


def _layerings(protocol, n):
    return {
        name: layering
        for name, layering in standard_layerings(protocol, n).items()
        if isinstance(layering.model, BATCH_MODELS)
    }


def _cases():
    for proto_name in sorted(PROTOCOLS):
        for n in (2, 3):
            for name in _layerings(PROTOCOLS[proto_name](n), n):
                yield pytest.param(proto_name, name, n,
                                   id=f"{proto_name}-{name}-n{n}")


def _bounded_bfs(layering, limit):
    """Up to *limit* states reachable from ``Con_0``, in BFS order."""
    seen = dict.fromkeys(layering.model.initial_states((0, 1)))
    queue = deque(seen)
    order = []
    while queue and len(order) < limit:
        state = queue.popleft()
        order.append(state)
        for _, child in layering.successors(state):
            if child not in seen:
                seen[child] = None
                queue.append(child)
    return order


@pytest.mark.parametrize("proto_name, layering_name, n", list(_cases()))
def test_layer_apply_equals_primitive_fold(proto_name, layering_name, n):
    layering = _layerings(PROTOCOLS[proto_name](n), n)[layering_name]
    edges = 0
    for state in _bounded_bfs(layering, MAX_STATES):
        for action in layering.layer_actions(state):
            stepped = verify_layering_embedding(layering, state, action)[-1]
            folded = layering.apply(state, action)
            assert folded == stepped
            assert hash(folded) == hash(stepped)
            rebuilt = GlobalState(folded.env, folded.locals)
            assert hash(folded) == hash(rebuilt)
            edges += 1
    assert edges > 0


def _both_paths_raise(model, state, actions):
    """The ValueError message from ``apply`` one step at a time, which
    must equal the one from ``apply_many`` over the same actions."""
    with pytest.raises(ValueError) as batch:
        model.apply_many(state, actions)
    with pytest.raises(ValueError) as single:
        for action in actions:
            state = model.apply(state, action)
    assert str(batch.value) == str(single.value)
    return str(single.value)


class TestIllegalPrimitives:
    def test_async_stage_twice(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        message = _both_paths_raise(
            model, s0, (stage_action(0), recv_action(0), stage_action(0))
        )
        assert message == "process 0 already has staged messages"

    def test_async_flush_with_empty_outbox(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        assert _both_paths_raise(model, s0, (flush_action(1),)) == (
            "process 1 has no staged messages to flush"
        )
        # after a full phase the outbox is empty again
        message = _both_paths_raise(
            model, s0,
            (stage_action(1), recv_action(1), flush_action(1),
             flush_action(1)),
        )
        assert message == "process 1 has no staged messages to flush"

    def test_async_unknown_action(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        assert "unknown async-MP action" in _both_paths_raise(
            model, s0, (stage_action(0), ("send", 0))
        )

    def test_snapshot_wrong_op(self):
        model = SnapshotMemoryModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        assert _both_paths_raise(model, s0, (scan_action(2),)) == (
            "process 2 must update next, cannot scan"
        )
        message = _both_paths_raise(
            model, s0, (update_action(2), update_action(2))
        )
        assert message == "process 2 must scan next, cannot update"

    def test_shared_memory_unknown_action(self):
        model = SharedMemoryModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        assert "unknown M^rw action" in _both_paths_raise(
            model, s0, (step_action(0), ("read", 0))
        )

    @pytest.mark.parametrize(
        "model_cls",
        [AsyncMessagePassingModel, SharedMemoryModel, SnapshotMemoryModel],
    )
    def test_foreign_environment_rejected(self, model_cls):
        model = model_cls(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        foreign = GlobalState(("elsewhere", ()), s0.locals)
        first = model.actions(s0)[0]
        with pytest.raises(ValueError, match="not a"):
            model.apply_many(foreign, (first,))


def _successor_cases():
    for proto_name in sorted(PROTOCOLS):
        for n in (2, 3):
            for name in _layerings(PROTOCOLS[proto_name](n), n):
                yield pytest.param(
                    lambda proto_name=proto_name, name=name, n=n:
                        _layerings(PROTOCOLS[proto_name](n), n)[name],
                    id=f"{proto_name}-{name}-n{n}",
                )
    for protocol_cls in (FloodSet, EIG):
        for n, t in ((3, 1), (3, 2), (4, 2)):
            for clean in (False, True):
                yield pytest.param(
                    lambda p=protocol_cls, n=n, t=t, c=clean:
                        StSynchronousLayering(
                            SynchronousModel(p(t + 1), n, t, c)
                        ),
                    id=f"st-{protocol_cls.__name__}-n{n}-t{t}"
                       f"{'-clean' if clean else ''}",
                )
    for proto_name in sorted(PROTOCOLS):
        for n in (2, 3):
            yield pytest.param(
                lambda name=proto_name, n=n:
                    S1MobileLayering(MobileModel(PROTOCOLS[name](n), n)),
                id=f"s1-{proto_name}-n{n}",
            )
    yield from _filtered_cases()


def _filtered_cases():
    """The two E9 ablations: S^rw without its absent actions, S^per
    without its short schedules."""
    yield pytest.param(
        lambda: FilteredLayering(
            SynchronicRWLayering(SharedMemoryModel(WaitForAll(), 3)),
            keep=lambda a: a[0] != "absent",
        ),
        id="filtered-srw-no-absent",
    )
    yield pytest.param(
        lambda: FilteredLayering(
            PermutationLayering(AsyncMessagePassingModel(WaitForAll(), 3)),
            keep=lambda a: a[0] != "short",
        ),
        id="filtered-sper-no-short",
    )


@pytest.mark.parametrize("make_layering", list(_successor_cases()))
def test_successors_equal_per_action_fold(make_layering):
    layering = make_layering()
    model = layering.model
    edges = 0
    for state in _bounded_bfs(layering, MAX_STATES):
        succs = layering.successors(state)
        actions = layering.layer_actions(state)
        assert [action for action, _ in succs] == actions
        for action, child in succs:
            alone = model.apply_many(state, layering.expand(state, action))
            assert child == alone
            assert hash(child) == hash(alone)
            edges += 1
    assert edges > 0


def _key_id(key):
    if key is None:
        return "any"
    if isinstance(key, frozenset):
        return "failed-" + ("".join(map(str, sorted(key))) or "none")
    return str(key)


def _compiled_key_cases():
    """Every layering of the successor parity above, once per key of
    its compiled layers (S^t over its own grid, clean crashes or not
    making no difference to its layers)."""
    for case in _successor_cases():
        (make_layering,), case_id = case.values, case.id
        if case_id.startswith("st-") and case_id.endswith("-clean"):
            continue
        for key in make_layering().compiled_layers:
            yield pytest.param(
                make_layering, key, id=f"{case_id}-{_key_id(key)}"
            )


def _states_with_key(layering, key):
    """The states of a bounded BFS whose layer key is *key*, and for
    S^t a state with each failed set that *key* stands for."""
    states = [
        state for state in _bounded_bfs(layering, 40)
        if layering.layer_key(state) == key
    ]
    if isinstance(layering, StSynchronousLayering):
        root = layering.model.initial_states()[-1]
        failed_sets = (
            [key] if key != SATURATED
            else map(frozenset, combinations(range(layering.n), layering.t))
        )
        states.extend(
            GlobalState(sync_env(failed), root.locals)
            for failed in failed_sets
        )
    return states


@pytest.mark.parametrize("make_layering, key", list(_compiled_key_cases()))
def test_compiled_layer_is_the_definition(make_layering, key):
    layering = make_layering()
    layer = layering.compiled_layers[key]
    states = _states_with_key(layering, key)
    assert states
    for state in states:
        assert layering.layer_key(state) == key
        actions = list(layering.layer_actions(state))
        assert list(layer.actions) == actions
        assert list(layer.expansions) == [
            tuple(layering.expand(state, action)) for action in actions
        ]


@pytest.mark.parametrize("n, t", [(3, 1), (3, 2), (4, 2)])
def test_st_compiles_one_layer_per_failed_set(n, t):
    layering = StSynchronousLayering(SynchronousModel(FloodSet(t + 1), n, t))
    expected = {
        frozenset(failed)
        for size in range(t)
        for failed in combinations(range(n), size)
    }
    assert set(layering.compiled_layers) == expected | {SATURATED}


def _shared_prefix_raises(model, state, legal, illegal):
    """The ValueError message of *illegal* alone, which must equal the one
    ``apply_each`` raises when *illegal* shares a prefix with the legal
    expansion, whichever of the two comes first."""
    model.apply_many(state, legal)
    message = _both_paths_raise(model, state, illegal)
    for expansions in ([legal, illegal], [illegal, legal]):
        with pytest.raises(ValueError) as batch:
            model.apply_each(state, expansions)
        assert str(batch.value) == message
    return message


class SelfSendingQuorum(QuorumDecide):
    """QuorumDecide whose process 1 also sends to itself."""

    def outgoing(self, i, n, local):
        messages = dict(super().outgoing(i, n, local))
        if i == 1:
            messages[1] = messages[0]
        return messages


class TestPrefixFold:
    """``apply_each`` of the async-MP, shared-memory and snapshot models."""

    def test_async_stage_twice_after_shared_prefix(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        phase = (stage_action(0), recv_action(0))
        message = _shared_prefix_raises(
            model, s0, phase + (flush_action(0),), phase + (stage_action(0),)
        )
        assert message == "process 0 already has staged messages"

    def test_async_flush_with_empty_outbox_after_shared_prefix(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        phase = (stage_action(1), recv_action(1), flush_action(1))
        message = _shared_prefix_raises(
            model, s0, phase + (stage_action(2),), phase + (flush_action(1),)
        )
        assert message == "process 1 has no staged messages to flush"

    def test_async_self_message_after_shared_prefix(self):
        model = AsyncMessagePassingModel(SelfSendingQuorum(2), 3)
        s0 = model.initial_state((0, 1, 1))
        phase = (stage_action(0), recv_action(0), flush_action(0))
        message = _shared_prefix_raises(
            model, s0, phase, phase + (stage_action(1),)
        )
        assert message == "process 1 attempted a self-message"

    def test_async_unknown_kind_after_shared_prefix(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        message = _shared_prefix_raises(
            model, s0, (stage_action(0), recv_action(0)),
            (stage_action(0), ("send", 0)),
        )
        assert "unknown async-MP action" in message

    def test_snapshot_wrong_op_after_shared_prefix(self):
        model = SnapshotMemoryModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        message = _shared_prefix_raises(
            model, s0, (update_action(2), scan_action(2)),
            (update_action(2), update_action(2)),
        )
        assert message == "process 2 must scan next, cannot update"

    def test_shared_memory_unknown_kind_after_shared_prefix(self):
        model = SharedMemoryModel(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        message = _shared_prefix_raises(
            model, s0, (step_action(0), step_action(0)),
            (step_action(0), ("read", 0)),
        )
        assert "unknown M^rw action" in message

    @pytest.mark.parametrize("model_cls", BATCH_MODELS)
    def test_duplicate_expansions_share_one_endpoint(self, model_cls):
        model = model_cls(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        expansion = tuple(model.actions(s0)[:2])
        first, other, second = model.apply_each(
            s0, [expansion, expansion[:1], list(expansion)]
        )
        assert first is second
        assert first == model.apply_many(s0, expansion)
        assert other == model.apply_many(s0, expansion[:1])
        assert hash(first) == hash(model.apply_many(s0, expansion))

    @pytest.mark.parametrize("model_cls", BATCH_MODELS)
    def test_empty_expansion_ends_at_the_state(self, model_cls):
        model = model_cls(QuorumDecide(2), 3)
        s0 = model.initial_state((0, 1, 1))
        step = model.actions(s0)[0]
        empty, stepped, again = model.apply_each(s0, [(), (step,), ()])
        assert empty == s0 and hash(empty) == hash(s0)
        assert empty is again
        assert stepped == model.apply(s0, step)
        assert model.apply_each(s0, []) == []

    @pytest.mark.parametrize("model_cls", BATCH_MODELS)
    def test_expansion_ending_inside_another(self, model_cls):
        # Every prefix of one phase, longest first: each endpoint is an
        # interior node of the longer expansions' path.
        model = model_cls(QuorumDecide(2), 3)
        state = model.initial_state((0, 1, 1))
        path = []
        for _ in range(6):
            action = model.actions(state)[-1]
            path.append(action)
            state = model.apply(state, action)
        s0 = model.initial_state((0, 1, 1))
        prefixes = [tuple(path[:k]) for k in range(len(path), -1, -1)]
        endpoints = model.apply_each(s0, prefixes)
        for prefix, endpoint in zip(prefixes, endpoints):
            stepped = s0
            for action in prefix:
                stepped = model.apply(stepped, action)
            assert endpoint == stepped
            assert hash(endpoint) == hash(stepped)


def _batch_and_single_raise(model, state, primitives):
    """The ValueError message from ``apply`` on the last primitive, which
    must equal the one from ``apply_each`` over all of them, the legal
    ones first."""
    with pytest.raises(ValueError) as batch:
        model.apply_each(state, [(p,) for p in primitives])
    with pytest.raises(ValueError) as single:
        model.apply(state, primitives[-1])
    assert str(batch.value) == str(single.value)
    return str(single.value)


class SelfSender(FloodSet):
    """FloodSet whose process 1 also sends to itself."""

    def outgoing(self, i, n, local):
        messages = dict(super().outgoing(i, n, local))
        if i == 1:
            messages[1] = messages[0]
        return messages


class TestIllegalRoundPrimitives:
    def test_sync_refail(self):
        model = SynchronousModel(FloodSet(3), 4, 2)
        crashed = model.apply(
            model.initial_state((0, 1, 1, 0)),
            fail_action((0, frozenset({1, 2, 3}))),
        )
        message = _batch_and_single_raise(
            model, crashed,
            (NO_FAILURE, fail_action((1, frozenset({0}))),
             fail_action((0, frozenset({1})))),
        )
        assert message == "action re-fails an already failed process"

    def test_sync_past_t(self):
        model = SynchronousModel(FloodSet(2), 3, 1)
        s0 = model.initial_state((0, 1, 1))
        message = _batch_and_single_raise(
            model, s0,
            (NO_FAILURE, fail_action((0, frozenset({1})))) + (
                fail_action((0, frozenset({1})), (1, frozenset({2}))),
            ),
        )
        assert message == "action exceeds the resilience bound t=1"

    def test_mobile_unknown_kind(self):
        model = MobileModel(FloodSet(2), 3)
        s0 = model.initial_state((0, 1, 1))
        message = _batch_and_single_raise(
            model, s0,
            (prefix_action(0, 0), omit_action(1, {0}),
             ("drop", 1, frozenset({0}))),
        )
        assert "unknown M^mf action" in message

    @pytest.mark.parametrize("make_model", [
        lambda: SynchronousModel(SelfSender(2), 3, 1),
        lambda: MobileModel(SelfSender(2), 3),
    ], ids=["sync", "mobile"])
    def test_self_message(self, make_model):
        model = make_model()
        s0 = model.initial_state((0, 1, 1))
        primitives = model.actions(s0)[:3]
        message = _batch_and_single_raise(model, s0, primitives)
        assert message == "process 1 attempted a self-message"
