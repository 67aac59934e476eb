"""Protocol tables that live as long as the layering.

A layering hands its own ``ProtocolTables`` to every ``Model.run`` it
makes, so the async-MP, shared-memory and snapshot folds share protocol
calls and endpoints across states.  What must not change:

* a layering whose tables were warmed by a full walk returns, at every
  state, the successors a freshly built layering returns, in order, and
  its layers still embed into the model one primitive at a time;
* the contract checks and the witness replay run without the search's
  tables, so a protocol that changes its answers is still ILL_FORMED
  (RP201), with or without a cache around the layering;
* tables never cross processes: a warmed layering pickles to the bytes
  of a fresh one, and a parallel sweep equals the sequential one.

The round models keep each primitive's outcome per environment in the
same tables.  A round that reads more of the state than its environment
is ILL_FORMED (RP201) too, an illegal primitive raises at every state,
and the per-primitive path and the cold view resolve every primitive at
every state.
"""

import pickle
from collections import deque

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.core.checker import ConsensusChecker, Verdict, replay_witness
from repro.layerings.base import verify_layering_embedding
from repro.layerings.permutation import PermutationLayering
from repro.layerings.st_synchronous import StSynchronousLayering, st_action
from repro.models import sync
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    stage_action,
)
from repro.models.base import ProtocolTables, synchronous_round
from repro.models.shared_memory import SharedMemoryModel, step_action
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    update_action,
)
from repro.models.sync import SynchronousModel, fail_action, sync_env
from repro.protocols.candidates import QuorumDecide
from repro.protocols.floodset import FloodSet

N = 3
#: The layerings over the three models that keep tables.
NAMES = ("permutation-mp", "synchronic-mp", "synchronic-rw", "iis-snapshot")
#: States compared per layering, and every how many the embedding runs.
BUDGET = 60
EMBED_EVERY = 15


def _layering(name):
    return standard_layerings(QuorumDecide(2), N)[name]


def _walk(layering, limit=None):
    """The states a BFS from every initial state reaches, in order."""
    roots = layering.model.initial_states()
    seen, queue, order = set(roots), deque(roots), []
    while queue and (limit is None or len(order) < limit):
        state = queue.popleft()
        order.append(state)
        for _, child in layering.successors(state):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return order


@pytest.fixture(scope="module")
def warmed():
    """Each layering, after a full walk filled its tables."""
    layerings = {name: _layering(name) for name in NAMES}
    for layering in layerings.values():
        _walk(layering)
    return layerings


@pytest.mark.parametrize("name", NAMES)
def test_warm_tables_give_a_fresh_layering_s_successors(name, warmed):
    warm = warmed[name]
    for index, state in enumerate(_walk(_layering(name), BUDGET)):
        succs = warm.successors(state)
        assert succs == _layering(name).successors(state)
        if index % EMBED_EVERY == 0:
            for action, child in succs:
                trace = verify_layering_embedding(warm, state, action)
                assert trace[-1] == child


class _Counting(QuorumDecide):
    """QuorumDecide that counts its protocol calls."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def outgoing(self, i, n, local):
        self.calls += 1
        return super().outgoing(i, n, local)

    def transition(self, i, n, local, received):
        self.calls += 1
        return super().transition(i, n, local, received)


def test_a_second_walk_makes_no_protocol_call():
    protocol = _Counting()
    layering = PermutationLayering(AsyncMessagePassingModel(protocol, N))
    first = _walk(layering, BUDGET)
    calls = protocol.calls
    assert calls > 0
    second = _walk(layering, BUDGET)
    assert protocol.calls == calls
    # Equal endpoints are one object across states, not only in a layer.
    assert all(a is b for a, b in zip(first[8:], second[8:]))


class _Flaky(QuorumDecide):
    """QuorumDecide whose ``transition`` ignores deliveries after its
    *k*-th call: a protocol that is not a function of its inputs."""

    def __init__(self, k):
        super().__init__(2)
        self.k = k
        self.calls = 0

    def transition(self, i, n, local, received):
        self.calls += 1
        if self.calls > self.k:
            return local
        return super().transition(i, n, local, received)


def _check(k, cache):
    protocol = _Flaky(k)
    layering = PermutationLayering(AsyncMessagePassingModel(protocol, N))
    report = ConsensusChecker(layering, cache=cache).check_all(layering.model)
    return protocol, report


@pytest.mark.parametrize("cache", [None, True])
class TestRP201SeesPastTheTables:
    def test_the_clean_protocol_is_refuted(self, cache):
        _, report = _check(float("inf"), cache)
        assert report.verdict is Verdict.AGREEMENT

    def test_the_sampled_double_call_catches_an_early_change(self, cache):
        _, report = _check(5, cache)
        assert report.verdict is Verdict.ILL_FORMED
        codes = {f.code: f.message for f in report.preflight.findings}
        assert "successors() disagreed" in codes["RP201"]

    def test_the_replay_catches_a_change_after_the_search(self, cache):
        # k is every call the clean check makes before its replay, so
        # the search and its sampled checks see the clean protocol; only
        # the replay sees it change.  Replayed through the search's
        # tables, the witness would replay without a protocol call.
        clean, report = _check(float("inf"), cache)
        assert report.refuted
        calls = clean.calls
        layering = PermutationLayering(AsyncMessagePassingModel(clean, N))
        assert replay_witness(layering, report)
        replay_calls = clean.calls - calls
        assert replay_calls > 0
        _, report = _check(calls - replay_calls, cache)
        assert report.verdict is Verdict.ILL_FORMED
        [finding] = report.preflight.findings
        assert finding.code == "RP201"
        assert "the refuting witness does not replay" in finding.message


@pytest.mark.parametrize("name", NAMES)
def test_a_warmed_layering_pickles_to_a_fresh_one_s_bytes(name, warmed):
    data = pickle.dumps(warmed[name])
    assert data == pickle.dumps(_layering(name))
    # The copy starts with empty tables and still folds the same layers.
    copy = pickle.loads(data)
    root = copy.model.initial_state((0, 1, 1))
    assert copy.successors(root) == warmed[name].successors(root)


def test_a_parallel_sweep_of_a_warmed_layering_equals_the_sequential_one(
    warmed,
):
    warm = warmed["synchronic-rw"]
    parallel = ConsensusChecker(warm).check_all(warm.model, workers=2)
    fresh = _layering("synchronic-rw")
    sequential = ConsensusChecker(fresh).check_all(fresh.model)
    assert sequential.refuted
    assert parallel.verdict is sequential.verdict
    assert parallel.inputs == sequential.inputs
    assert parallel.states_explored == sequential.states_explored
    assert parallel.execution.actions == sequential.execution.actions
    assert parallel.execution.states == sequential.execution.states


# -- round tables -------------------------------------------------------------


class _Peeking(SynchronousModel):
    """A synchronous model whose round reads more than the environment:
    a newly failing process is recorded failed only while process 0 is
    in its first round."""

    def run(self, state, program, tables=None):
        failed = self.failed_at(state)
        first = state.local(0).round == 0

        def round_for(action):
            new = dict(action)
            lost = tuple(
                failed.union(j for j, blocked in new.items() if dest in blocked)
                for dest in range(self.n)
            )
            recorded = frozenset(new) if first else frozenset()
            return sync_env(failed | recorded), lost

        return synchronous_round(
            self, self.protocol, state, program, round_for, tables
        )


@pytest.mark.parametrize("cache", [None, True])
def test_a_round_that_reads_the_locals_is_ill_formed(cache):
    clean = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
    assert ConsensusChecker(clean, cache=cache).check_all(clean.model).satisfied
    layering = StSynchronousLayering(_Peeking(FloodSet(2), 3, 1))
    report = ConsensusChecker(layering, cache=cache).check_all(layering.model)
    assert report.verdict is Verdict.ILL_FORMED
    codes = {f.code: f.message for f in report.preflight.findings}
    assert "successors() disagreed" in codes["RP201"]


@pytest.fixture
def round_calls(monkeypatch):
    """Counts the ``round_for`` calls of the synchronous model."""
    calls = {"count": 0}

    def counting(model, protocol, state, program, round_for, tables=None):
        def counted(primitive):
            calls["count"] += 1
            return round_for(primitive)

        return synchronous_round(model, protocol, state, program, counted, tables)

    monkeypatch.setattr(sync, "synchronous_round", counting)
    return calls


def _calls(calls, thunk):
    before = calls["count"]
    thunk()
    return calls["count"] - before


def test_the_layering_s_tables_resolve_a_round_once(round_calls):
    layering = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
    root = layering.model.initial_state((0, 1, 1))
    assert _calls(round_calls, lambda: layering.successors(root)) > 0
    assert _calls(round_calls, lambda: layering.successors(root)) == 0
    # Another state with the same environment reads the same outcomes.
    [(_, child)] = layering.successors(root)[:1]
    assert child.env == root.env
    assert _calls(round_calls, lambda: layering.successors(child)) == 0


def test_cold_and_apply_resolve_the_round_at_every_state(round_calls):
    layering = StSynchronousLayering(SynchronousModel(FloodSet(2), 3, 1))
    root = layering.model.initial_state((0, 1, 1))
    layering.successors(root)
    cold = layering.cold()
    first = _calls(round_calls, lambda: cold.successors(root))
    assert first > 0
    assert _calls(round_calls, lambda: cold.successors(root)) == first
    action = st_action(0, 3)
    for _ in range(2):
        assert _calls(round_calls, lambda: layering.apply(root, action)) == 1


def test_an_illegal_primitive_raises_at_every_state():
    model = SynchronousModel(FloodSet(2), 3, 1)
    layering = StSynchronousLayering(model)
    failed = layering.apply(model.initial_state((0, 1, 1)), st_action(0, 3))
    over_budget = fail_action((1, frozenset({2})))
    program = model.compile([[over_budget]])
    tables = ProtocolTables()
    for _ in range(2):
        with pytest.raises(ValueError, match="resilience bound"):
            model.run(failed, program, tables)
    assert over_budget not in tables.rounds.get(failed.env, {})


# -- the fold models' memos never stand in for a legality check ---------------


def _memo_sizes(tables):
    return (
        len(tables.ids), len(tables.value_ids), len(tables.phase),
        len(tables.step), len(tables.write), len(tables.endpoints),
    )


#: (model class, the step from the initial state to the other state, the
#: primitive run at both, whether it is legal at the initial state, and
#: the error where it is not).  The tables learn every legal primitive
#: first; the illegal one still raises, every time.
ILLEGAL_AFTER_LEGAL = [
    pytest.param(
        AsyncMessagePassingModel, stage_action(0), stage_action(0), True,
        "already has staged messages", id="stage-twice",
    ),
    pytest.param(
        AsyncMessagePassingModel, stage_action(0), flush_action(0), False,
        "no staged messages to flush", id="flush-empty",
    ),
    pytest.param(
        SnapshotMemoryModel, update_action(0), update_action(0), True,
        "must scan next, cannot update", id="snapshot-update-twice",
    ),
    pytest.param(
        SnapshotMemoryModel, update_action(0), scan_action(0), False,
        "must update next, cannot scan", id="snapshot-scan-first",
    ),
    pytest.param(
        SharedMemoryModel, step_action(0), ("read", 0), False,
        "unknown M\\^rw action", id="rw-unknown-kind",
    ),
]


@pytest.mark.parametrize(
    "model_cls, step, primitive, legal_first, error", ILLEGAL_AFTER_LEGAL
)
def test_an_illegal_fold_primitive_raises_at_every_state(
    model_cls, step, primitive, legal_first, error
):
    model = model_cls(QuorumDecide(2), N)
    root = model.initial_state((0, 1, 1))
    states = [root, model.apply(root, step)]
    legal, illegal = states if legal_first else states[::-1]
    tables = ProtocolTables()
    model.run(root, model.compile([[step]]), tables)
    program = model.compile([[primitive]])
    if primitive[0] in model.KINDS:
        [child] = model.run(legal, program, tables)
        assert child == model.apply(legal, primitive)
    sizes = _memo_sizes(tables)
    for _ in range(2):
        with pytest.raises(ValueError, match=error):
            model.run(illegal, program, tables)
    # A refused primitive files no memo and no endpoint.
    assert _memo_sizes(tables)[2:] == sizes[2:]
