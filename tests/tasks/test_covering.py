"""Unit tests for coverings, outcomes and generalized valence."""

import pytest

from repro.core.valence import ExplorationLimitExceeded
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.protocols.tasks import EpsilonAgreementProtocol
from repro.resilience.budget import Budget
from repro.tasks.complex import Complex
from repro.tasks.covering import (
    Covering,
    OutcomeAnalyzer,
    OutcomeResult,
    always_valence_connected,
    bipartition_coverings,
    valence_graph_for_covering,
)
from repro.tasks.simplex import Simplex
from tests.conftest import ToySystem


def sx(values):
    return Simplex.from_values(values)


class TestCovering:
    def test_side_lookup(self):
        cov = Covering(Complex([sx([0, 0])]), Complex([sx([1, 1])]))
        assert sx([0, 0]) in cov.side(0)
        with pytest.raises(ValueError):
            cov.side(2)

    def test_covers(self):
        cov = Covering(Complex([sx([0, 0])]), Complex([sx([1, 1])]))
        assert cov.covers([sx([0, 0]), sx([1, 1])])
        assert not cov.covers([sx([0, 0])])  # side1 uninhabited
        assert not cov.covers([sx([0, 0]), sx([2, 2])])  # uncovered

    def test_faces_covered_via_closure(self):
        cov = Covering(Complex([sx([0, 0])]), Complex([sx([1, 1])]))
        partial = Simplex([(0, 0)])
        assert cov.covers([partial, sx([1, 1])])


class TestBipartitions:
    def test_count(self):
        outcomes = [sx([0, 0]), sx([1, 1]), sx([0, 1])]
        assert len(list(bipartition_coverings(outcomes))) == 3

    def test_single_outcome_no_coverings(self):
        assert list(bipartition_coverings([sx([0, 0])])) == []

    def test_each_is_a_covering(self):
        outcomes = [sx([0, 0]), sx([1, 1]), sx([0, 1])]
        for cov in bipartition_coverings(outcomes):
            assert cov.covers(outcomes)


class TestOutcomeResult:
    def test_valence_for_covering(self):
        cov = Covering(Complex([sx([0, 0])]), Complex([sx([1, 1])]))
        r = OutcomeResult(frozenset({sx([0, 0])}), False)
        assert r.valent_for(cov, 0)
        assert not r.valent_for(cov, 1)
        both = OutcomeResult(frozenset({sx([0, 0]), sx([1, 1])}), False)
        assert both.bivalent_for(cov)


class TestOutcomeAnalyzer:
    def make(self, protocol):
        model = AsyncMessagePassingModel(protocol, 3)
        return PermutationLayering(model), model

    def test_quorum_outcomes_include_disagreement(self):
        layering, model = self.make(QuorumDecide(2))
        analyzer = OutcomeAnalyzer(layering, max_states=300_000)
        result = analyzer.outcome(model.initial_state((0, 1, 1)))
        # full agreement on 0 and on 1 are both reachable...
        values_seen = set()
        for simplex in result.outcomes:
            values_seen |= simplex.values()
        assert values_seen == {0, 1}
        assert not result.diverges  # QuorumDecide always decides

    def test_unanimous_single_outcome_value(self):
        layering, model = self.make(QuorumDecide(2))
        analyzer = OutcomeAnalyzer(layering, max_states=300_000)
        result = analyzer.outcome(model.initial_state((1, 1, 1)))
        for simplex in result.outcomes:
            assert simplex.values() == {1}

    def test_epsilon_protocol_starvation_outcomes(self):
        """Under perpetual short schedules the starved process never
        decides: 2-size outcomes appear alongside the 3-size ones."""
        layering, model = self.make(EpsilonAgreementProtocol())
        analyzer = OutcomeAnalyzer(layering, max_states=500_000)
        result = analyzer.outcome(model.initial_state((0, 1, 1)))
        sizes = {len(s) for s in result.outcomes}
        assert 3 in sizes
        assert 2 in sizes
        assert not result.diverges  # the protocol is 1-resilient

    def test_memoization(self):
        layering, model = self.make(QuorumDecide(2))
        analyzer = OutcomeAnalyzer(layering, max_states=300_000)
        r1 = analyzer.outcome(model.initial_state((0, 1, 1)))
        r2 = analyzer.outcome(model.initial_state((0, 1, 1)))
        assert r1 is r2

    def test_edge_budget_trips_within_one_expansion(self):
        # One state with 40 successors, each deciding 0: a budget of 10
        # edges must stop the walk at the dequeue after that expansion.
        edges = {"x": [(f"a{i}", f"c{i}") for i in range(40)]}
        decisions = {}
        for i in range(40):
            edges[f"c{i}"] = [("s", f"c{i}")]
            decisions[f"c{i}"] = {0: 0, 1: 0}
        system = ToySystem(edges=edges, decisions=decisions)
        analyzer = OutcomeAnalyzer(system, max_states=Budget(max_edges=10))
        with pytest.raises(ExplorationLimitExceeded, match="edges"):
            analyzer.outcome(system.state("x"))


class TestAlwaysValenceConnected:
    def test_initial_states_always_connected(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        layering = PermutationLayering(model)
        analyzer = OutcomeAnalyzer(layering, max_states=300_000)
        initials = model.initial_states((0, 1))
        assert always_valence_connected(initials, analyzer)

    def test_valence_graph_shape(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        layering = PermutationLayering(model)
        analyzer = OutcomeAnalyzer(layering, max_states=300_000)
        zeros = model.initial_state((0, 0, 0))
        ones = model.initial_state((1, 1, 1))
        mixed = model.initial_state((0, 1, 1))
        cov = Covering(
            Complex([sx([0, 0, 0])]), Complex([sx([1, 1, 1])])
        )
        g = valence_graph_for_covering([zeros, ones, mixed], analyzer, cov)
        assert g.has_edge(zeros, mixed)
        assert g.has_edge(ones, mixed)
        assert not g.has_edge(zeros, ones)
