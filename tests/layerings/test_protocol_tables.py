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
"""

import pickle
from collections import deque

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.core.checker import ConsensusChecker, Verdict, replay_witness
from repro.layerings.base import verify_layering_embedding
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide

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
