"""The fault-injection harness must kill every mutant with a witness.

The robustness bar for the verification engine itself: for each injected
fault class the checker must (a) refute the mutant, (b) with the verdict
class the fault targets, and (c) produce a witness that replays through
the layered system.  FloodSet and EIG at ``t+1`` rounds are the subjects;
a surviving mutant is a checker bug.
"""

import pytest

from repro.core.checker import Verdict
from tests.mutation import (
    MUTATION_OPERATORS,
    DropRelayMutant,
    FlipDecisionMutant,
    MutantProtocol,
    NeverDecideMutant,
    StallOnConflictMutant,
    kill_rate,
    mutation_campaign,
    mutation_kill_table,
    replay_witness,
)


@pytest.fixture(scope="module")
def campaign():
    return mutation_campaign(n=3, t=1)


class TestKillRate:
    def test_all_mutants_killed(self, campaign):
        survivors = [
            f"{r.operator} on {r.protocol_name} -> {r.verdict.value}"
            for r in campaign
            if not r.killed
        ]
        assert not survivors, f"surviving mutants: {survivors}"
        assert kill_rate(campaign) == 1.0

    def test_both_subject_protocols_covered(self, campaign):
        names = {r.protocol_name for r in campaign}
        assert any("FloodSet" in n for n in names)
        assert any("EIG" in n for n in names)

    def test_at_least_four_violation_classes(self, campaign):
        classes = {r.verdict for r in campaign}
        assert classes >= {
            Verdict.AGREEMENT,
            Verdict.VALIDITY,
            Verdict.DECISION,
            Verdict.WRITE_ONCE,
        }

    def test_every_operator_ran_on_every_subject(self, campaign):
        assert len(campaign) == 2 * len(MUTATION_OPERATORS)

    def test_expected_verdict_classes(self, campaign):
        for result in campaign:
            assert result.verdict in result.expected, result.operator


class TestWitnesses:
    def test_every_witness_replays(self, campaign):
        assert all(r.witness_ok for r in campaign)

    def test_decision_mutants_carry_lassos(self, campaign):
        lassos = [r for r in campaign if r.verdict is Verdict.DECISION]
        assert lassos
        for r in lassos:
            assert r.report.cycle is not None
            assert r.report.cycle.initial == r.report.cycle.final

    def test_replay_rejects_missing_execution(self, campaign):
        import dataclasses

        killed = next(r for r in campaign if r.verdict is Verdict.AGREEMENT)
        tampered = dataclasses.replace(
            killed.report, execution=None, cycle=None
        )
        from repro.analysis.sync_lower_bound import make_st_system
        from repro.protocols.floodset import FloodSet

        system = make_st_system(FloodSet(2), 3, 1)
        assert not replay_witness(system, tampered)


class TestKillTable:
    def test_table_renders(self, campaign):
        table = mutation_kill_table(campaign)
        assert "mutation kill rate" in table
        assert "14/14 (100%)" in table
        assert "flip-decision" in table and "drop-relay" in table
        assert "stall-on-conflict" in table

    def test_kill_rate_empty(self):
        assert kill_rate([]) == 0.0


class TestOperatorMechanics:
    def test_wrapper_requires_round_structure(self):
        class Boundless:
            def name(self):
                return "boundless"

        with pytest.raises(TypeError):
            FlipDecisionMutant(Boundless())

    def test_mutant_name_mentions_operator_and_inner(self):
        from repro.protocols.floodset import FloodSet

        mutant = NeverDecideMutant(FloodSet(2))
        assert "never-decide" in mutant.name()
        assert "FloodSet" in mutant.name()

    def test_identity_base_delegates(self):
        from repro.protocols.floodset import FloodSet

        inner = FloodSet(2)
        wrapped = MutantProtocol(inner)
        local = inner.initial_local(0, 3, 1)
        assert wrapped.initial_local(0, 3, 1) == local
        assert wrapped.outgoing(0, 3, local) == inner.outgoing(0, 3, local)
        assert wrapped.decision(0, 3, local) == inner.decision(0, 3, local)

    def test_drop_relay_participates_in_first_round(self):
        from repro.protocols.floodset import FloodSet

        inner = FloodSet(2)
        mutant = DropRelayMutant(inner)
        fresh = inner.initial_local(2, 3, 1)
        assert mutant.outgoing(2, 3, fresh) == inner.outgoing(2, 3, fresh)

    def test_stall_on_conflict_decides_on_unanimity(self):
        """The fault must stay latent off the adversarial schedules: a
        victim whose pool is a singleton decides exactly like the
        original protocol."""
        import dataclasses

        from repro.protocols.floodset import FloodSet

        inner = FloodSet(2)
        mutant = StallOnConflictMutant(inner)
        decided = dataclasses.replace(
            inner.initial_local(2, 3, 1), round=2, decided=1
        )
        assert mutant.decision(2, 3, decided) == inner.decision(2, 3, decided)
        assert mutant.decision(2, 3, decided) is not None
        conflicted = dataclasses.replace(
            decided, known=frozenset({0, 1})
        )
        assert inner.decision(2, 3, conflicted) is not None
        assert mutant.decision(2, 3, conflicted) is None
