"""Per-state work of the ``S^t`` sweep is done once per input that
determines it.

One ``check_all`` of EIG(3) in ``S^t`` (n=4, t=2) explores 8,128 states
over 16 input assignments.  What each kind of work depends on, and so
how often it may run:

* a round primitive's outcome depends on the environment and the
  primitive: 59 distinct pairs, so at most 60 ``round_for`` calls go
  through the layering's tables (the contract checks' cold view calls
  it at every state it expands, and is not counted);
* the safety predicate depends on the state: one call per explored
  state, however many edges reach it;
* ``nonfaulty_under`` depends on the action: at most one call per
  distinct action in each lasso pass.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.models.sync as sync
from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker, Verdict
from repro.protocols.eig import EIG

STATES = 8128


@pytest.fixture(scope="module")
def sweep():
    """The sweep's report, its call counts, and per lasso pass the
    ``nonfaulty_under`` calls per action."""
    counts = Counter()
    lassos: list[Counter] = []
    system = make_st_system(EIG(3), 4, 2)
    round_of = sync.synchronous_round
    state_problem = ConsensusChecker._state_problem
    lasso = ConsensusChecker._find_undecided_lasso
    nonfaulty_under = type(system).nonfaulty_under

    def counted_round(model, protocol, state, program, round_for, tables=None):
        def counted(primitive):
            counts["round_for"] += 1
            return round_for(primitive)

        resolve = round_for if tables is None else counted
        return round_of(model, protocol, state, program, resolve, tables)

    def counted_state_problem(state, inputs, facts):
        counts["state_problem"] += 1
        return state_problem(state, inputs, facts)

    def counted_lasso(self, *args, **kwargs):
        lassos.append(Counter())
        return lasso(self, *args, **kwargs)

    def counted_nonfaulty_under(self, action):
        lassos[-1][action] += 1
        return nonfaulty_under(self, action)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sync, "synchronous_round", counted_round)
        patch.setattr(
            ConsensusChecker, "_state_problem",
            staticmethod(counted_state_problem),
        )
        patch.setattr(ConsensusChecker, "_find_undecided_lasso", counted_lasso)
        patch.setattr(
            type(system), "nonfaulty_under", counted_nonfaulty_under
        )
        report = ConsensusChecker(system).check_all(system.model)
    return report, counts, lassos


def test_the_sweep_is_satisfied_on_its_states(sweep):
    report, _, _ = sweep
    assert report.verdict is Verdict.SATISFIED
    assert report.states_explored == STATES


def test_round_outcomes_are_resolved_once_per_environment(sweep):
    _, counts, _ = sweep
    assert 0 < counts["round_for"] <= 60


def test_the_safety_predicate_runs_once_per_state(sweep):
    _, counts, _ = sweep
    assert counts["state_problem"] == STATES


def test_the_lasso_pass_asks_once_per_action(sweep):
    _, _, lassos = sweep
    assert len(lassos) == 16
    for asked in lassos:
        assert asked and max(asked.values()) == 1
