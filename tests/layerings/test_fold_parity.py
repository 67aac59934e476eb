"""The batch layer fold equals the one-primitive-at-a-time fold.

``Layering.apply`` hands a whole layer expansion to ``Model.apply_many``,
which the async-MP, shared-memory and snapshot models run on scratch
locals, building one ``GlobalState`` at the end.
``verify_layering_embedding`` still steps through ``Model.apply`` one
primitive at a time.  So over a bounded BFS of every layering over those
three models and every registry protocol, the two folds must reach
equal, equally hashed endpoints.  Illegal primitives must raise the
same ``ValueError`` on both paths, including in the middle of a batch.
"""

from collections import deque

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.core.state import GlobalState
from repro.layerings.base import verify_layering_embedding
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    recv_action,
    stage_action,
)
from repro.models.shared_memory import SharedMemoryModel, step_action
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    update_action,
)
from repro.protocols.candidates import QuorumDecide
from repro.protocols.registry import PROTOCOLS

#: States expanded per (protocol, layering, n); every layer action of
#: each is checked.
MAX_STATES = 200

#: The models that override ``apply_many`` with a batch fold; the others
#: keep the default fold of ``apply``, which is the path
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
