"""Contract preflight tests: one ill-formed system per RP2xx code.

Each fixture system violates exactly one hygiene condition, and the
assertions check both the stable code and the *witness* — the concrete
``(state, action, child)`` edge the probe reports, in the style of the
checkers' counterexample runs.
"""

from __future__ import annotations

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.core.state import GlobalState
from repro.layerings.st_synchronous import StSynchronousLayering, st_action
from repro.lint import (
    ContractWitness,
    IllFormedSystemError,
    PreflightReport,
    preflight_system,
)
from repro.lint.contracts import preflight_once
from repro.models.sync import NO_FAILURE, SynchronousModel
from repro.protocols.eig import EIG
from tests.conftest import ToySystem


def clean_system():
    """x -> {a, b}, both terminal-decided: satisfies every contract."""
    return ToySystem(
        edges={
            "x": [("l", "a"), ("r", "b")],
            "a": [("s", "a")],
            "b": [("s", "b")],
        },
        decisions={"a": {0: 0, 1: 0}, "b": {0: 1, 1: 1}},
    )


def _only(report: PreflightReport, code: str):
    assert [f.code for f in report.findings] == [code]
    return report.findings[0]


class _FlickeringSystem(ToySystem):
    """successors() returns the edge list in alternating order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def successors(self, state):
        self.calls += 1
        succs = super().successors(state)
        return succs if self.calls % 2 else list(reversed(succs))


class TestRP201Determinism:
    def test_alternating_order_is_caught(self):
        system = _FlickeringSystem(
            edges={"x": [("l", "a"), ("r", "b")], "a": [], "b": []},
            decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
        )
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP201"})
        )
        finding = _only(report, "RP201")
        assert "disagreed at index 0" in finding.message
        assert finding.witness == ContractWitness(system.state("x"))

    def test_length_mismatch_is_caught(self):
        class Growing(ToySystem):
            def __init__(self):
                super().__init__(edges={})
                self.calls = 0

            def successors(self, state):
                self.calls += 1
                return [
                    (f"e{i}", self.state("x")) for i in range(self.calls)
                ]

        system = Growing()
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP201"})
        )
        finding = _only(report, "RP201")
        assert "1 then 2 edges" in finding.message


class _DropsInBatch(SynchronousModel):
    """Loses process 0's message to process 1 in the failure-free round,
    but only when a whole layer is batched: ``apply`` is still right."""

    def run(self, state, program, tables=None):
        expansions = [expansion for _, expansion in program.picks]
        children = super().run(state, program, tables)
        if len(expansions) == 1 or self.failed_at(state):
            return children
        protocol, n = self.protocol, self.n
        received = {
            s: protocol.outgoing(s, n, state.local(s))[1] for s in range(2, n)
        }
        dropped = protocol.transition(1, n, state.local(1), received)
        return [
            child.replace_local(1, dropped)
            if expansion == (NO_FAILURE,) else child
            for expansion, child in zip(expansions, children)
        ]


class TestRP202Closure:
    def test_batch_disagreeing_with_per_primitive_fold_is_caught(self):
        model = _DropsInBatch(EIG(2), 3, 1)
        layering = StSynchronousLayering(model)
        report = preflight_system(layering, model.initial_states())
        finding = _only(report, "RP202")
        assert "disagrees with the per-primitive fold" in finding.message
        root = model.initial_state((0, 0, 0))
        assert finding.witness.state == root
        assert finding.witness.action == st_action(0, 0)
        assert finding.witness.child != model.apply(root, NO_FAILURE)
        refused = ConsensusChecker(layering).check_all(model)
        assert refused.verdict is Verdict.ILL_FORMED
        assert [f.code for f in refused.preflight.findings] == ["RP202"]

    def test_undecided_dead_end_is_caught(self):
        system = ToySystem(edges={"x": [("go", "dead")], "dead": []})
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP202"})
        )
        finding = _only(report, "RP202")
        assert "empty successor set" in finding.message
        assert finding.witness.state == system.state("dead")

    def test_decided_terminal_state_is_not_a_dead_end(self):
        # Engines never expand all-nonfailed-decided states, so an empty
        # successor set there is unobservable and must not be flagged.
        system = ToySystem(
            edges={"x": [("go", "done")], "done": []},
            decisions={"done": {0: 0, 1: 0}},
        )
        report = preflight_system(system, [system.state("x")])
        assert report.ok

    def test_failed_processes_need_not_decide(self):
        system = ToySystem(
            edges={"x": [("go", "done")], "done": []},
            decisions={"done": {1: 0}},
            failed={"done": frozenset({0})},
        )
        report = preflight_system(system, [system.state("x")])
        assert report.ok


class TestRP203FaultyMonotonicity:
    def test_revived_process_is_caught(self):
        system = ToySystem(
            edges={"x": [("revive", "y")], "y": [("s", "y")]},
            decisions={"y": {0: 0, 1: 0}},
            failed={"x": frozenset({1})},
        )
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP203"})
        )
        finding = _only(report, "RP203")
        assert "[1] revived" in finding.message
        assert finding.witness == ContractWitness(
            system.state("x"), "revive", system.state("y")
        )

    def test_growing_failure_set_is_fine(self):
        system = ToySystem(
            edges={"x": [("crash", "y")], "y": [("s", "y")]},
            decisions={"y": {0: 0}},
            failed={"y": frozenset({1})},
        )
        assert preflight_system(system, [system.state("x")]).ok


class TestRP204DecisionIrrevocability:
    def test_changed_decision_is_caught(self):
        system = ToySystem(
            edges={"x": [("flip", "y")], "y": [("s", "y")]},
            decisions={"x": {0: 0, 1: 0}, "y": {0: 1, 1: 0}},
        )
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP204"})
        )
        finding = _only(report, "RP204")
        assert "decision changed from 0 to 1" in finding.message
        assert finding.witness == ContractWitness(
            system.state("x"), "flip", system.state("y")
        )

    def test_forgotten_decision_is_caught(self):
        system = ToySystem(
            edges={"x": [("drop", "y")], "y": [("s", "y")]},
            decisions={"x": {0: 0, 1: 0}, "y": {1: 0}},
        )
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP204"})
        )
        finding = _only(report, "RP204")
        assert "from 0 to None" in finding.message


class TestRP205Hashability:
    def test_unhashable_root_is_caught(self):
        class _Unhashable:
            __hash__ = None

        system = ToySystem(edges={})
        report = preflight_system(system, [_Unhashable()])
        finding = _only(report, "RP205")
        assert "not hashable" in finding.message
        assert not report.complete

    def test_unhashable_child_component_is_caught(self):
        class Listy(ToySystem):
            def successors(self, state):
                # GlobalState hashes eagerly, so the bad component
                # surfaces right here, inside the probe's BFS.
                return [("go", GlobalState(["not", "hashable"], ("y",)))]

        system = Listy(edges={})
        report = preflight_system(system, [system.state("x")])
        finding = _only(report, "RP205")
        assert "not hashable" in finding.message


class TestProbeMechanics:
    def test_clean_system_reports_exhaustive_coverage(self):
        system = clean_system()
        report = preflight_system(system, [system.state("x")])
        assert report.ok
        assert report.complete
        assert report.states_probed == 3
        assert report.edges_probed == 4  # x's two edges + two self-loops
        assert "preflight clean (exhaustive" in report.describe()

    def test_truncated_probe_is_marked_incomplete(self):
        class Endless(ToySystem):
            def successors(self, state):
                name = self._name(state)
                return [("t", self.state(name + "!"))]

        system = Endless(edges={})
        report = preflight_system(
            system, [system.state("x")], max_states=5
        )
        assert report.ok
        assert not report.complete
        assert report.states_probed == 5
        assert "sampled" in report.describe()

    def test_one_finding_per_code(self):
        # Two distinct RP204 violations: only the first witness is kept.
        system = ToySystem(
            edges={
                "x": [("f1", "y"), ("f2", "z")],
                "y": [("s", "y")],
                "z": [("s", "z")],
            },
            decisions={
                "x": {0: 0, 1: 0},
                "y": {0: 1, 1: 0},
                "z": {0: 1, 1: 0},
            },
        )
        report = preflight_system(
            system, [system.state("x")], codes=frozenset({"RP204"})
        )
        assert len(report.findings) == 1

    def test_probe_uses_the_uncached_base(self):
        # A memoizing cache wrapper returns the same list object twice
        # by construction; the probe must look through it or the
        # determinism check is vacuous.
        from repro.core.cache import CachedSystem

        system = _FlickeringSystem(
            edges={"x": [("l", "a"), ("r", "b")], "a": [], "b": []},
            decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
        )
        cached = CachedSystem(system)
        report = preflight_system(
            cached, [system.state("x")], codes=frozenset({"RP201"})
        )
        _only(report, "RP201")

    def test_raise_if_ill_formed(self):
        system = ToySystem(edges={"x": [("go", "dead")], "dead": []})
        report = preflight_system(system, [system.state("x")])
        with pytest.raises(IllFormedSystemError) as excinfo:
            report.raise_if_ill_formed()
        assert excinfo.value.report is report
        assert "RP202" in str(excinfo.value)

    def test_error_from_plain_text_has_no_report(self):
        err = IllFormedSystemError("shard 3 refused: RP202 ...")
        assert err.report is None


class TestMemoization:
    def test_clean_systems_are_probed_once(self):
        system = clean_system()
        first = preflight_once(system, [system.state("x")])
        assert first is not None and first.ok
        assert preflight_once(system, [system.state("x")]) is None

    def test_ill_formed_systems_keep_reporting(self):
        system = ToySystem(edges={"x": [("go", "dead")], "dead": []})
        for _ in range(2):
            report = preflight_once(system, [system.state("x")])
            assert report is not None and not report.ok
