"""Unit tests for the exact valence analyzer, on synthetic systems."""

import pytest

from repro.core.valence import (
    ExplorationLimitExceeded,
    ValenceAnalyzer,
    ValenceResult,
)
from repro.resilience.budget import Budget
from tests.conftest import ToySystem


class TestValenceResult:
    def test_bivalent(self):
        r = ValenceResult(frozenset({0, 1}), False)
        assert r.bivalent and not r.univalent

    def test_univalent_value(self):
        r = ValenceResult(frozenset({1}), False)
        assert r.univalent
        assert r.univalent_value() == 1

    def test_univalent_value_raises_on_bivalent(self):
        with pytest.raises(ValueError):
            ValenceResult(frozenset({0, 1}), False).univalent_value()

    def test_shared_valence(self):
        a = ValenceResult(frozenset({0, 1}), False)
        b = ValenceResult(frozenset({1}), False)
        c = ValenceResult(frozenset({0}), False)
        assert a.shares_valence_with(b)
        assert a.shares_valence_with(c)
        assert not b.shares_valence_with(c)


class TestDiamond:
    def test_root_bivalent(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        assert an.valence(toy_diamond.state("x")).values == frozenset({0, 1})

    def test_branches_univalent(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        assert an.valence(toy_diamond.state("a")).univalent_value() == 0
        assert an.valence(toy_diamond.state("b")).univalent_value() == 1

    def test_no_divergence(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        assert not an.valence(toy_diamond.state("x")).diverges

    def test_terminal_states_not_expanded(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        r = an.valence(toy_diamond.state("da"))
        assert r.values == frozenset({0})
        assert not r.diverges

    def test_memoization(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        an.valence(toy_diamond.state("x"))
        count = an.explored_states
        an.valence(toy_diamond.state("a"))
        assert an.explored_states == count  # already covered


class TestCycles:
    def test_undecided_cycle_diverges(self, toy_cycle_undecided):
        an = ValenceAnalyzer(toy_cycle_undecided)
        r = an.valence(toy_cycle_undecided.state("x"))
        assert r.diverges
        assert r.values == frozenset({0})

    def test_cycle_member_diverges(self, toy_cycle_undecided):
        an = ValenceAnalyzer(toy_cycle_undecided)
        assert an.valence(toy_cycle_undecided.state("c1")).diverges

    def test_values_propagate_around_cycle(self):
        # c1 <-> c2, and c2 -> t0 (decides 0), c1 -> t1 (decides 1).
        # Both cycle members must see BOTH values (the SCC fold).
        sys = ToySystem(
            edges={
                "c1": [("f", "c2"), ("d", "t1")],
                "c2": [("b", "c1"), ("d", "t0")],
                "t0": [("s", "t0")],
                "t1": [("s", "t1")],
            },
            decisions={"t0": {0: 0, 1: 0}, "t1": {0: 1, 1: 1}},
        )
        an = ValenceAnalyzer(sys)
        assert an.valence(sys.state("c1")).values == frozenset({0, 1})
        assert an.valence(sys.state("c2")).values == frozenset({0, 1})
        assert an.valence(sys.state("c1")).diverges

    def test_self_loop_diverges(self):
        sys = ToySystem(edges={"x": [("s", "x")]})
        an = ValenceAnalyzer(sys)
        r = an.valence(sys.state("x"))
        assert r.diverges and r.values == frozenset()

    def test_decided_self_loop_terminal(self):
        sys = ToySystem(
            edges={"x": [("s", "x")]},
            decisions={"x": {0: 1, 1: 1}},
        )
        an = ValenceAnalyzer(sys)
        r = an.valence(sys.state("x"))
        assert not r.diverges and r.values == frozenset({1})


class TestFailedProcesses:
    def test_failed_process_decision_ignored(self):
        sys = ToySystem(
            edges={"x": [("s", "x")]},
            decisions={"x": {0: 0, 1: 1}},
            failed={"x": frozenset({1})},
        )
        an = ValenceAnalyzer(sys)
        r = an.valence(sys.state("x"))
        # Process 1 is failed: its decision does not make the state
        # 1-valent; process 0's decision suffices for termination.
        assert r.values == frozenset({0})
        assert not r.diverges

    def test_partial_decision_with_failure_is_terminal(self):
        sys = ToySystem(
            edges={"x": [("s", "x")]},
            decisions={"x": {0: 0}},
            failed={"x": frozenset({1})},
        )
        an = ValenceAnalyzer(sys)
        assert an.is_terminal(sys.state("x"))


class TestLimits:
    def test_exploration_limit_strict(self):
        # A long chain exceeding a tiny budget: strict mode raises.
        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(100)}
        edges["s100"] = [("s", "s100")]
        sys = ToySystem(edges=edges, decisions={"s100": {0: 0, 1: 0}})
        an = ValenceAnalyzer(sys, max_states=10, strict=True)
        with pytest.raises(ExplorationLimitExceeded):
            an.valence(sys.state("s0"))

    def test_exploration_limit_graceful(self):
        # By default the same exhaustion degrades to an incomplete
        # lower-bound result that is not memoized.
        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(100)}
        edges["s100"] = [("s", "s100")]
        sys = ToySystem(edges=edges, decisions={"s100": {0: 0, 1: 0}})
        an = ValenceAnalyzer(sys, max_states=10)
        result = an.valence(sys.state("s0"))
        assert not result.complete
        assert not result.univalent  # incompleteness blocks univalence
        assert result.values == frozenset()  # decision not yet reached

    def test_incomplete_bivalence_is_sound(self, toy_diamond):
        # Values already observed certify bivalence even when the budget
        # trips (lower-bound semantics): the diamond's fifth state trips a
        # budget of four, and the states met by then decide both values.
        an = ValenceAnalyzer(toy_diamond, max_states=4)
        result = an.valence(toy_diamond.state("x"))
        assert result == ValenceResult(frozenset({0, 1}), False, complete=False)
        assert result.bivalent

    def test_cross_query_reuse(self, toy_diamond):
        an = ValenceAnalyzer(toy_diamond)
        r1 = an.valence(toy_diamond.state("a"))
        r2 = an.valence(toy_diamond.state("x"))
        assert r1.values < r2.values


class TestEdgeBudget:
    """The edge budget must trip within one state's expansion: the walk
    reads the meter at the next dequeue, so one high-degree state
    overshoots an exhausted edge budget by at most its own out-degree.

    Regression: ``_explore`` discarded the ``charge_edge`` return, so a
    single high-degree state (degree far below the 256-op slow-check
    period) could generate arbitrarily many successors past an exhausted
    edge budget — on a small system the trip never fired at all.
    """

    def _wide_system(self, fanout: int = 40) -> ToySystem:
        edges = {"x": [(f"a{i}", f"c{i}") for i in range(fanout)]}
        decisions = {}
        for i in range(fanout):
            edges[f"c{i}"] = [("s", f"c{i}")]
            decisions[f"c{i}"] = {0: 0, 1: 0}
        return ToySystem(edges=edges, decisions=decisions)

    def test_strict_raises_within_one_expansion(self):
        sys = self._wide_system()
        an = ValenceAnalyzer(
            sys, max_states=Budget(max_edges=10), strict=True
        )
        with pytest.raises(ExplorationLimitExceeded, match="edges"):
            an.valence(sys.state("x"))

    def test_graceful_incomplete_within_one_expansion(self):
        sys = self._wide_system()
        an = ValenceAnalyzer(sys, max_states=Budget(max_edges=10))
        result = an.valence(sys.state("x"))
        assert not result.complete

    def test_roomy_edge_budget_unaffected(self):
        sys = self._wide_system()
        an = ValenceAnalyzer(
            sys, max_states=Budget(max_edges=10_000), strict=True
        )
        result = an.valence(sys.state("x"))
        assert result.complete and result.values == frozenset({0})
