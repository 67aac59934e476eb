"""t-round synchronous decision tasks (Lemmas 7.4, 7.5).

The paper's Section 7 ends with the synchronous side of the story: a
task solvable within ``t`` rounds of the ``t``-resilient synchronous
model must be ``t``-thick connected (Lemma 7.5; Lemma 7.4 supplies the
bivalent prefix), and the diameter series of Theorem 7.7 strengthens the
condition further.  This module provides the operational half:

* :func:`check_solves_in_rounds` — exhaustively verify that a protocol
  solves a task in the ``S^t`` submodel with every run deciding within a
  given number of layers;
* :func:`lemma_7_5_consistency` — the executable form of Lemma 7.5: a
  verified ``t``-round solution implies the task's t-thick-connectivity
  verdict must be True (checked with the combinatorial machinery).

Positive instances shipped: the identity and constant tasks (0 rounds)
and discretized approximate agreement (1 round — each process hears at
least ``n-1`` inputs in the single round, which is exactly the quorum
the :class:`EpsilonAgreementProtocol` needs).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.core.checker import Verdict, _path_to
from repro.core.run import Execution
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.base import MessagePassingProtocol
from repro.tasks.checker import TaskChecker, TaskReport
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.tasks.problem import DecisionProblem
from repro.tasks.thick import problem_is_k_thick_connected


def check_solves_in_rounds(
    problem: DecisionProblem,
    protocol: MessagePassingProtocol,
    t: int,
    rounds: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
) -> TaskReport:
    """Verify a protocol solves *problem* within *rounds* ``S^t`` layers.

    Runs the exhaustive task checker and additionally enforces the round
    bound: every run must have all non-failed processes decided within
    ``rounds`` layers of the initial state.  Returns the checker's
    report; a round-bound breach is reported as a DECISION verdict with
    the offending execution.
    """
    model = SynchronousModel(protocol, problem.n, t)
    layering = StSynchronousLayering(model)
    budget = Budget.of(max_states)
    checker = TaskChecker(layering, problem, budget)
    report = checker.check_all(model)
    if not report.satisfied:
        return report
    breach = _round_bound_breach(layering, problem, rounds, budget)
    if breach is not None:
        return breach
    return report


def _round_bound_breach(
    layering: StSynchronousLayering,
    problem: DecisionProblem,
    rounds: int,
    budget: Budget,
) -> Optional[TaskReport]:
    """BFS every run to depth *rounds*; an undecided frontier state is a
    breach of the round bound, witnessed by its run from the facet's
    initial state."""
    model = layering.model
    meter = budget.meter()
    for facet in sorted(problem.input_facets(), key=repr):
        assignment = [facet.value_of(i) for i in range(problem.n)]
        root = (model.initial_state(assignment), 0)
        frontier: deque[tuple[GlobalState, int]] = deque([root])
        parent: dict[tuple[GlobalState, int], Optional[tuple]] = {root: None}
        while frontier:
            key = frontier.popleft()
            state, depth = key
            failed = model.failed_at(state)
            decided = model.decisions(state)
            done = all(
                i in decided for i in range(problem.n) if i not in failed
            )
            if done:
                continue
            if depth >= rounds:
                path = _path_to(key, parent)  # over (state, depth) keys
                return TaskReport(
                    verdict=Verdict.DECISION,
                    input_facet=facet,
                    execution=Execution(
                        tuple(s for s, _ in path.states), path.actions
                    ),
                    cycle=None,
                    detail=(
                        f"some run undecided after {rounds} round(s); "
                        f"undecided non-failed processes remain"
                    ),
                    states_explored=len(parent),
                )
            for action, child in layering.successors(state):
                child_key = (child, depth + 1)
                if child_key not in parent:
                    tripped = meter.charge_state(child)
                    if tripped is not None:
                        raise ExplorationLimitExceeded(
                            f"round-bound budget exhausted ({tripped}) "
                            f"after {len(parent)} states from {facet!r}"
                        )
                    parent[child_key] = (key, action)
                    frontier.append(child_key)
    return None


def lemma_7_5_consistency(
    problem: DecisionProblem,
    report: TaskReport,
    t: int,
    max_input_set_size: Optional[int] = 3,
) -> bool:
    """Lemma 7.5, executable: a verified t-round solution implies the
    task is t-thick connected."""
    if not report.satisfied:
        return True  # nothing to check: the premise fails
    return problem_is_k_thick_connected(
        problem, k=t, max_input_set_size=max_input_set_size
    )
