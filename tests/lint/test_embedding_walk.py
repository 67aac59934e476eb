"""RP202's embedding walk over a layer whose expansions share prefixes.

The contract guard steps each sampled state's layer one primitive at a
time through the cold ``Model.apply``, in layer order, and steps a
prefix two actions share once.  In ``S^per`` at n=3 the full schedule
``[0, 1, 2]`` and the pair schedule ``[0, {1, 2}]`` after it share the
prefix stage, recv, flush of process 0 and the stage of process 1, so a
fault in the later action is met only after that shared prefix.  Each
ill-formed system here is checked through the bounded probe and through
the checks fused into a sequential and a pooled ``check_all``.  A layer
the batch fold refuses outright is named by the same walk, and the last
test pins the walk's cost.
"""

from __future__ import annotations

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.contracts import ContractGuard, ContractWitness
from repro.layerings.base import CompiledLayer, Layering
from repro.layerings.permutation import (
    PermutationLayering,
    full_schedule,
    pair_schedule,
)
from repro.lint import preflight_system
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.pool import PoolConfig
from tests.interrupts import trap

FULL = full_schedule((0, 1, 2))
PAIR = pair_schedule((0, 1, 2), 1)
#: What FULL and PAIR share: process 0's phase and process 1's stage.
SHARED = 4


class _ReusesAnEarlierBranch(AsyncMessagePassingModel):
    """Ill-formed: the batch fold of a whole layer hands its third
    expansion (PAIR) the first one's endpoint (FULL's), as a fold that
    did not copy its scratch where the two diverge would.  A program of
    one expansion (``apply``, ``apply_many``) is folded right."""

    def run(self, state, program, tables=None):
        children = super().run(state, program, tables)
        if program.count > 2:
            children[2] = children[0]
        return children


class _RestagesInThePair(PermutationLayering):
    """Ill-formed: ``expand`` has every pair schedule at position 1 stage
    its first concurrent process twice, an illegal primitive right after
    the prefix PAIR shares with FULL.  The compiled layer runs the legal
    expansions, so the batch fold does not raise and only the walk sees
    the illegal step."""

    def expand(self, state, action):
        steps = super().expand(state, action)
        if action[0] == "pair" and action[2] == 1:
            return steps[:SHARED] + steps[SHARED - 1:]
        return steps

    def compile_layer(self, state):
        actions = tuple(self.layer_actions(state))
        expansions = tuple(
            PermutationLayering.expand(self, state, action)
            for action in actions
        )
        return CompiledLayer(
            actions, expansions, self.model.compile(expansions)
        )


def _reuses_an_earlier_branch():
    model = _ReusesAnEarlierBranch(QuorumDecide(2), 3)
    return PermutationLayering(model), model


def _restages_in_the_pair():
    model = AsyncMessagePassingModel(QuorumDecide(2), 3)
    return _RestagesInThePair(model), model


#: name -> (builder, message fragment)
CASES = {
    "reuses-an-earlier-branch": (
        _reuses_an_earlier_branch,
        "disagrees with the per-primitive fold",
    ),
    "restages-in-the-pair": (
        _restages_in_the_pair,
        "not enabled at an intermediate state",
    ),
}
POOL = PoolConfig(workers=2, max_retries=0, retry_backoff=0.01)


def _rp202(findings, fragment):
    [finding] = findings
    assert finding.code == "RP202"
    assert fragment in finding.message
    return finding


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_fault_after_a_shared_prefix_is_caught(name):
    build, fragment = CASES[name]
    layering, model = build()
    root = model.initial_state((0, 0, 0))
    actions = list(layering.layer_actions(root))
    assert actions.index(FULL) < actions.index(PAIR)
    assert (
        layering.expand(root, FULL)[:SHARED]
        == layering.expand(root, PAIR)[:SHARED]
    )
    probe = _rp202(
        preflight_system(layering, model.initial_states()).findings, fragment
    )
    # The first failing action in layer order, on the first root.
    assert probe.witness.state == root
    assert probe.witness.action == PAIR
    child = dict(layering.successors(root))[PAIR]
    assert probe.witness.child == child
    if name == "reuses-an-earlier-branch":
        assert child != model.apply_many(root, layering.expand(root, PAIR))
    sequential = ConsensusChecker(layering).check_all(model)
    pooled = ConsensusChecker(layering).check_all(
        model, workers=2, pool=POOL
    )
    assert sequential.verdict is Verdict.ILL_FORMED
    assert pooled == sequential
    for report in (sequential, pooled):
        finding = _rp202(report.preflight.findings, fragment)
        assert finding.message == probe.message
        assert finding.witness == probe.witness


class _FlushesTwiceInEveryPair(PermutationLayering):
    """Ill-formed: every pair schedule ends with a second flush of its
    last process, which has nothing staged by then.  The batch fold
    refuses the layer with a ``ValueError`` before the guard sees it."""

    def expand(self, state, action):
        steps = super().expand(state, action)
        return (*steps, steps[-1]) if action[0] == "pair" else steps


def test_a_layer_the_batch_fold_refuses_is_ill_formed():
    """RP202 names the first action the walk refuses, in the probe, in
    a sweep and in one assignment's check; the bare search raises."""
    model = AsyncMessagePassingModel(QuorumDecide(2), 3)
    layering = _FlushesTwiceInEveryPair(model)
    root = model.initial_state((0, 0, 0))
    with pytest.raises(ValueError, match="no staged messages"):
        layering.successors(root)
    first_pair = next(
        a for a in layering.layer_actions(root) if a[0] == "pair"
    )
    fragment = "not enabled at an intermediate state"
    probe = _rp202(
        preflight_system(layering, model.initial_states()).findings, fragment
    )
    assert probe.witness == ContractWitness(root, first_pair)
    swept = ConsensusChecker(layering).check_all(model)
    one = ConsensusChecker(layering).check(root, (0, 0, 0))
    for report in (swept, one):
        assert report.verdict is Verdict.ILL_FORMED
        finding = _rp202(report.preflight.findings, fragment)
        assert finding.message == probe.message
    with pytest.raises(ValueError, match="no staged messages"):
        ConsensusChecker(layering, preflight=False).check_all(model)


def test_the_walk_steps_each_distinct_prefix_once(monkeypatch):
    """A default ``check_all`` of QuorumDecide(2) in ``S^per`` at n=3:
    one cold ``Model.apply`` per distinct prefix of the sampled states'
    expansions, and no second fold of the layer through
    ``Layering.apply``."""
    system = standard_layerings(QuorumDecide(2), 3)["permutation-mp"]
    sampled = []
    check = ContractGuard.check

    def recording(guard, state, succs):
        if succs and guard.states < guard.embedding_samples:
            sampled.append(state)
        return check(guard, state, succs)

    monkeypatch.setattr(ContractGuard, "check", recording)
    with trap(type(system.model), "apply") as applied, trap(
        Layering, "apply"
    ) as folded:
        report = ConsensusChecker(system).check_all(system.model)
    assert report.verdict is Verdict.AGREEMENT
    assert report.states_explored == 8
    prefixes = sum(
        len({
            tuple(system.expand(state, action))[:k]
            for action in system.layer_actions(state)
            for k in range(1, len(system.expand(state, action)) + 1)
        })
        for state in sampled
    )
    assert applied.count == prefixes == 492
    assert folded.count == 0
