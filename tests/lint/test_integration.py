"""The contract checks' default-on integration with checkers and explorers.

Three behaviours are pinned here:

* an ill-formed system yields ``ILL_FORMED`` reports (checkers) or an
  :class:`IllFormedSystemError` (explorers) instead of garbage verdicts;
* the consensus checker checks the edges its own search computes, so a
  verdict rests only on checked edges, a contract broken where the
  search never went does not hide its refutation, and every refuting
  witness replays through the uncached system (RP201 when it does not);
* ``preflight=False`` reproduces the pre-preflight engines exactly — a
  clean system's report is identical with the stage on or off, and an
  ill-formed system is explored rather than refused.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.checker import ConsensusChecker, Verdict, replay_witness
from repro.core.exploration import (
    explore,
    reachable_states,
)
from repro.layerings.base import CompiledLayer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.lint import IllFormedSystemError, preflight_system
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.protocols.eig import EIG
from repro.resilience.pool import PoolConfig
from repro.tasks.catalog import binary_consensus
from repro.tasks.checker import TaskChecker
from repro.tasks.simplex import Simplex
from tests.conftest import ToySystem
from tests.lint.test_contracts import _DropsInBatch


class RootedToy(ToySystem):
    """A toy system that is its own ``check_all`` model: every input
    assignment starts at state ``x``."""

    def initial_state(self, assignment):
        return self.state("x")


def reviving_system(cls=ToySystem):
    """Ill-formed: process 1 is failed at the root and revives (RP203)."""
    return cls(
        edges={
            "x": [("revive", "a"), ("other", "b")],
            "a": [("s", "a")],
            "b": [("s", "b")],
        },
        decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
        failed={"x": frozenset({1})},
    )


def valid_diamond():
    """Well-formed: x -> {a, b}, both all-decided on 0."""
    return ToySystem(
        edges={
            "x": [("l", "a"), ("r", "b")],
            "a": [("s", "a")],
            "b": [("s", "b")],
        },
        decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
    )


class TestConsensusChecker:
    def test_ill_formed_verdict_with_report(self):
        system = reviving_system()
        report = ConsensusChecker(system).check(system.state("x"), (0, 0))
        assert report.verdict is Verdict.ILL_FORMED
        assert report.ill_formed
        assert not report.satisfied
        assert [f.code for f in report.preflight.findings] == ["RP203"]
        assert report.preflight.findings[0].witness is not None
        assert "RP203" in report.detail

    def test_no_preflight_explores_the_ill_formed_system(self):
        system = reviving_system()
        report = ConsensusChecker(system, preflight=False).check(
            system.state("x"), (0, 0)
        )
        assert report.verdict is not Verdict.ILL_FORMED
        assert report.preflight is None

    def test_no_preflight_parity_on_a_clean_system(self):
        # The stage must be invisible on well-formed systems: identical
        # reports (verdict, witnesses, counters) with it on or off.
        # budget_stats carries wall-clock seconds, the one legitimately
        # nondeterministic field, so it is normalized out.
        import dataclasses

        system = valid_diamond()
        with_stage = ConsensusChecker(system).check(
            system.state("x"), (0, 0)
        )
        without = ConsensusChecker(system, preflight=False).check(
            system.state("x"), (0, 0)
        )
        assert dataclasses.replace(
            with_stage, budget_stats=None
        ) == dataclasses.replace(without, budget_stats=None)

    def test_ill_formed_charges_no_exploration(self):
        system = reviving_system()
        report = ConsensusChecker(system).check(system.state("x"), (0, 0))
        assert report.states_explored == 0
        assert report.execution is None and report.cycle is None


def _drops_in_batch():
    """Ill-formed: the batch fold loses a message the per-primitive fold
    delivers (RP202)."""
    model = _DropsInBatch(EIG(2), 3, 1)
    return StSynchronousLayering(model), model


def _toy(system):
    return system, system


#: name -> (builder of the (system, model) pair, the expected code)
ILL_FORMED_SWEEPS = {
    "reviving": (lambda: _toy(reviving_system(RootedToy)), "RP203"),
    "drops-in-batch": (_drops_in_batch, "RP202"),
    "revoked": (lambda: _toy(RootedToy(
        edges={"x": [("flip", "y")], "y": [("s", "y")]},
        decisions={"x": {0: 0}, "y": {0: 1, 1: 1}},
    )), "RP204"),
    "dead-end": (lambda: _toy(RootedToy(
        edges={"x": [("go", "dead")], "dead": []},
    )), "RP202"),
}


def _assert_real_witness(system, finding):
    """A finding's witness edge is an edge of the uncached system."""
    witness = finding.witness
    if witness is not None and witness.action is not None:
        base = getattr(system, "uncached", system)
        assert (witness.action, witness.child) in base.successors(
            witness.state
        )


class TestFusedChecks:
    POOL = PoolConfig(workers=2, max_retries=0, retry_backoff=0.01)

    @pytest.mark.parametrize("name", list(ILL_FORMED_SWEEPS))
    def test_sequential_and_pooled_sweeps_agree(self, name):
        build, code = ILL_FORMED_SWEEPS[name]
        system, model = build()
        sequential = ConsensusChecker(system).check_all(model)
        pooled = ConsensusChecker(system).check_all(
            model, workers=2, pool=self.POOL
        )
        assert sequential.verdict is Verdict.ILL_FORMED
        assert [f.code for f in sequential.preflight.findings] == [code]
        assert pooled == sequential
        _assert_real_witness(system, sequential.preflight.findings[0])

    def test_the_cached_search_checks_the_same_edges(self):
        system = reviving_system()
        report = ConsensusChecker(system, cache=True).check(
            system.state("x"), (0, 0)
        )
        finding = report.preflight.findings[0]
        assert finding.code == "RP203"
        _assert_real_witness(system, finding)

    def test_violation_before_an_unsearched_bad_edge_is_reported(self):
        # x -> a shows disagreement; the reviving edge b -> c lies past
        # the point where the search stops, so no verdict rests on it.
        system = ToySystem(
            edges={
                "x": [("l", "a"), ("r", "b")],
                "a": [("s", "a")],
                "b": [("revive", "c")],
                "c": [("s", "c")],
            },
            decisions={"a": {0: 0, 1: 1}},
            failed={"b": frozenset({1})},
        )
        report = ConsensusChecker(system).check(system.state("x"), (0, 1))
        assert report.verdict is Verdict.AGREEMENT
        assert replay_witness(system, report)

    def test_bad_edge_on_the_searched_path_is_ill_formed(self):
        system = ToySystem(
            edges={"x": [("revive", "b")], "b": [("l", "a")], "a": []},
            decisions={"a": {0: 0, 1: 1}},
            failed={"x": frozenset({1})},
        )
        report = ConsensusChecker(system).check(system.state("x"), (0, 1))
        assert report.verdict is Verdict.ILL_FORMED
        finding = report.preflight.findings[0]
        assert finding.code == "RP203"
        assert finding.witness.action == "revive"
        _assert_real_witness(system, finding)

    def test_late_nondeterminism_fails_the_witness_replay(self):
        system = _LateFlicker(chain=10)
        bare = ConsensusChecker(system, preflight=False).check(
            system.state("s0"), (0, 1)
        )
        assert bare.verdict is Verdict.AGREEMENT
        system = _LateFlicker(chain=10)
        report = ConsensusChecker(system).check(system.state("s0"), (0, 1))
        assert report.verdict is Verdict.ILL_FORMED
        finding = report.preflight.findings[0]
        assert finding.code == "RP201"
        assert "does not replay" in finding.message
        # The first edge past the 8 sampled states, on the witness path.
        assert (finding.witness.state, finding.witness.action) == (
            system.state("s8"), "go"
        )

    def test_sampled_determinism_check_catches_early_nondeterminism(self):
        system = _LateFlicker(chain=10, after=0)
        report = ConsensusChecker(system).check(system.state("s0"), (0, 1))
        finding = report.preflight.findings[0]
        assert finding.code == "RP201"
        assert "disagreed at index 0" in finding.message

    def test_only_the_sweeps_first_assignment_is_sampled(self):
        # Sequential and pooled sweeps sample the same states: those of
        # assignment (0, 0), where this system is deterministic.
        system = _FlickersPastTheFirstRoot()
        sequential = ConsensusChecker(system).check_all(system)
        pooled = ConsensusChecker(system).check_all(
            system, workers=2, pool=self.POOL
        )
        assert sequential.verdict is Verdict.SATISFIED
        assert pooled == sequential


class _FlickersPastTheFirstRoot(RootedToy):
    """Each input assignment ``(a, b)`` starts at its own root ``rab``,
    whose two edges reach states where both processes decided ``a``;
    every root but ``r00`` lists them in alternating order."""

    def __init__(self):
        super().__init__(edges={})
        self.calls: Counter = Counter()

    def initial_state(self, assignment):
        return self.state("r%d%d" % tuple(assignment))

    def successors(self, state):
        name = self._name(state)
        if not name.startswith("r"):
            return []
        self.calls[name] += 1
        succs = [("l", self.state("d" + name[1])),
                 ("r", self.state("e" + name[1]))]
        flip = name != "r00" and self.calls[name] % 2 == 0
        return succs[::-1] if flip else succs

    def decisions(self, state):
        name = self._name(state)
        return {} if name.startswith("r") else dict.fromkeys(
            range(self.n), int(name[1])
        )


class _LateFlicker(ToySystem):
    """A chain ``s0 -> ... -> s<chain>`` ending in disagreement, whose
    states from ``s<after>`` on answer a second ``successors()`` call
    with a different edge."""

    def __init__(self, chain: int, after: int = 8):
        names = [f"s{k}" for k in range(chain + 1)]
        super().__init__(
            edges={a: [("go", b)] for a, b in zip(names, names[1:])},
            decisions={names[-1]: {0: 0, 1: 1}},
        )
        self.after = after
        self.calls: Counter = Counter()

    def successors(self, state):
        name = self._name(state)
        self.calls[name] += 1
        succs = super().successors(state)
        if self.calls[name] > 1 and int(name[1:]) >= self.after:
            return [(action, self.state("elsewhere")) for action, _ in succs]
        return succs


class _DropsAnAction(PermutationLayering):
    """Ill-formed: its compiled layer leaves out the last layer action.

    Every child ``successors()`` returns is the right endpoint for its
    label, so only the comparison of the labels with ``layer_actions()``
    can catch it (RP202)."""

    def compile_layer(self, state):
        actions, expansions, _ = super().compile_layer(state)
        return CompiledLayer(
            actions[:-1], expansions[:-1], self.model.compile(expansions[:-1])
        )


class TestCompiledLayerLabels:
    def test_a_dropped_action_is_ill_formed(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        layering = _DropsAnAction(model)
        report = ConsensusChecker(layering).check_all(model)
        assert report.verdict is Verdict.ILL_FORMED
        [finding] = report.preflight.findings
        assert finding.code == "RP202"
        assert "labels disagree with layer_actions()" in finding.message
        probe = preflight_system(layering, model.initial_states())
        assert [f.code for f in probe.findings] == ["RP202"]

    def test_the_full_layer_is_clean(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        probe = preflight_system(
            PermutationLayering(model), model.initial_states()
        )
        assert probe.ok


class TestTaskChecker:
    def test_ill_formed_verdict(self):
        system = reviving_system()
        checker = TaskChecker(system, binary_consensus(2))
        report = checker.check(
            system.state("x"), Simplex.from_values((0, 0))
        )
        assert report.verdict is Verdict.ILL_FORMED
        assert report.ill_formed
        assert [f.code for f in report.preflight.findings] == ["RP203"]

    def test_no_preflight_explores(self):
        system = reviving_system()
        checker = TaskChecker(
            system, binary_consensus(2), preflight=False
        )
        report = checker.check(
            system.state("x"), Simplex.from_values((0, 0))
        )
        assert report.verdict is not Verdict.ILL_FORMED

    def test_late_nondeterminism_fails_the_witness_replay(self):
        facet = Simplex.from_values((0, 1))
        system = _LateFlicker(chain=10)
        bare = TaskChecker(
            system, binary_consensus(2), preflight=False
        ).check(system.state("s0"), facet)
        assert bare.verdict is Verdict.VALIDITY
        system = _LateFlicker(chain=10)
        report = TaskChecker(system, binary_consensus(2)).check(
            system.state("s0"), facet
        )
        assert report.verdict is Verdict.ILL_FORMED
        [finding] = report.preflight.findings
        assert finding.code == "RP201"
        assert "does not replay" in finding.message

    def test_only_the_first_facet_is_sampled(self):
        # As in the consensus sweep: the facets after the first, whose
        # roots flicker, are not double-called.
        system = _FlickersPastTheFirstRoot()
        report = TaskChecker(system, binary_consensus(2)).check_all(system)
        assert report.verdict is Verdict.SATISFIED
        flickering = TaskChecker(system, binary_consensus(2)).check(
            system.state("r10"), Simplex.from_values((1, 0))
        )
        assert [f.code for f in flickering.preflight.findings] == ["RP201"]

    def test_split_decisions_of_inputs_replay_as_a_task_violation(
        self, quorum_permutation
    ):
        # Every decided value is an input, so by the consensus rules the
        # final state shows no VALIDITY violation; the replay judges it
        # by Δ-membership, the task checker's own predicate.
        layering = quorum_permutation
        report = TaskChecker(layering, binary_consensus(3)).check_all(
            layering.model
        )
        assert report.verdict is Verdict.VALIDITY
        final = report.execution.final
        failed = layering.failed_at(final)
        values = {
            v for i, v in layering.decisions(final).items() if i not in failed
        }
        assert len(values) > 1 and values <= set(
            report.input_facet.value_of(i) for i in range(3)
        )


class TestExplorers:
    def test_reachable_states_refuses(self):
        system = reviving_system()
        with pytest.raises(IllFormedSystemError) as excinfo:
            reachable_states(system, [system.state("x")])
        assert excinfo.value.report is not None
        assert [f.code for f in excinfo.value.report.findings] == [
            "RP203"
        ]

    def test_reachable_states_no_preflight_parity(self):
        broken = reviving_system()
        depths = reachable_states(
            broken, [broken.state("x")], preflight=False
        )
        assert depths == {
            broken.state("x"): 0,
            broken.state("a"): 1,
            broken.state("b"): 1,
        }
        clean = valid_diamond()
        assert reachable_states(
            clean, [clean.state("x")]
        ) == reachable_states(clean, [clean.state("x")], preflight=False)

    def test_explore_refuses(self):
        system = reviving_system()
        with pytest.raises(IllFormedSystemError):
            explore(system, [system.state("x")])
        stats = explore(system, [system.state("x")], preflight=False)
        assert stats.states == 3


class TestRealSystemParity:
    def test_no_preflight_parity_on_an_e12_cell(self, st_floodset_fast):
        # One real grid cell (FloodSet(1) under S^t, n=3, t=1): the full
        # check_all sweep must be byte-identical with the stage on or
        # off, wall-clock seconds aside.
        import dataclasses

        layering = st_floodset_fast
        with_stage = ConsensusChecker(layering).check_all(layering.model)
        without = ConsensusChecker(layering, preflight=False).check_all(
            layering.model
        )
        assert dataclasses.replace(
            with_stage, budget_stats=None
        ) == dataclasses.replace(without, budget_stats=None)

