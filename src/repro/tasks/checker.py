"""Exhaustive decision-task checking (Section 7).

The task analogue of :class:`repro.core.checker.ConsensusChecker`: given a
:class:`DecisionProblem` and a protocol bound into a layered system, the
checker explores every ``S``-run from every input facet and verifies

* **validity** — at every reachable state, the simplex of decisions made
  by non-failed processes belongs to ``Δ(s)`` for the run's input facet
  ``s`` (complexes are face-closed, so a partial decision set violating
  this can never be completed into an acceptable output: early detection
  is sound);
* **decision** — no fair infinite run starves a nonfaulty undecided
  process (same lasso analysis as the consensus checker);
* **write-once** decisions.

Agreement-style constraints are not separate for general tasks: they are
encoded in ``Δ`` (e.g. consensus-as-a-task puts only the unanimous
facets in the output complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.cache import CacheSpec
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.run import Execution
from repro.core.state import GlobalState, StateFacts
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.tasks.problem import DecisionProblem
from repro.tasks.simplex import Simplex


@dataclass(frozen=True)
class TaskReport:
    """The result of checking one protocol against one task.

    ``preflight`` carries the :class:`~repro.core.contracts.PreflightReport`
    behind an ``ILL_FORMED`` verdict (None on every other verdict).
    """

    verdict: Verdict
    input_facet: Optional[Simplex]
    execution: Optional[Execution]
    cycle: Optional[Execution]
    detail: str
    states_explored: int
    preflight: Optional[object] = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    @property
    def ill_formed(self) -> bool:
        """True when the contract checks refused the system."""
        return self.verdict is Verdict.ILL_FORMED


class _TaskSearch(ConsensusChecker):
    """The consensus search with Δ-membership as its state predicate.

    A run's ``inputs`` are its input facet, so the search's reports and
    its witness replay carry the facet where they carry an assignment.
    """

    def __init__(
        self, system, problem: DecisionProblem, budget, cache, preflight
    ) -> None:
        super().__init__(
            system, budget, strict=True, cache=cache, preflight=preflight
        )
        self.problem = problem

    def _state_problem(
        self, state: GlobalState, input_facet: Simplex, facts: StateFacts
    ) -> Optional[tuple[Verdict, str]]:
        decided = _decided_simplex(*facts[state])
        if self.problem.acceptable(input_facet, decided):
            return None
        return (
            Verdict.VALIDITY,
            f"decided simplex {decided!r} not acceptable for input "
            f"{input_facet!r}",
        )


class TaskChecker:
    """Exhaustively check decision + validity for a decision problem.

    Runs the consensus checker's search, with Δ-membership as the state
    predicate in place of agreement/value-validity: the contract checks
    fused into the search, witness replay, the lasso pass and the budget
    accounting are the consensus checker's own.

    ``max_states`` accepts a state count or a full
    :class:`~repro.resilience.budget.Budget`.  The task checker is always
    *strict*: exhaustion raises
    :class:`~repro.core.valence.ExplorationLimitExceeded` (the
    solvability drivers interpret a SATISFIED report as a solvability
    claim, which a silently truncated search cannot support).

    ``cache`` memoizes the system's successor/failure/decision queries
    (see :func:`repro.core.cache.resolve_cache`); reports are identical
    cached or uncached.

    ``preflight`` (default on) runs the RP2xx contract checks inside the
    search, as the consensus checker does: every edge it computes is
    checked, the sampled determinism and embedding checks run on the
    first facet of :meth:`check_all`, and a refuting witness that does
    not replay is ILL_FORMED (RP201).  An ill-formed system yields an
    ``ILL_FORMED`` report; ``preflight=False`` runs the bare search.
    """

    def __init__(
        self,
        system,
        problem: DecisionProblem,
        max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
        cache: CacheSpec = None,
        preflight: bool = True,
    ) -> None:
        self._search = _TaskSearch(
            system, problem, Budget.of(max_states), cache, preflight
        )

    def check(
        self, initial_state: GlobalState, input_facet: Simplex
    ) -> TaskReport:
        """Check all runs from the initial state of one input facet."""
        return self._check(initial_state, input_facet, sampled=True)

    def check_all(self, model) -> TaskReport:
        """Check every input facet of the problem."""
        problem = self._search.problem
        total = 0
        facets = sorted(problem.input_facets(), key=repr)
        for index, facet in enumerate(facets):
            assignment = [facet.value_of(i) for i in range(problem.n)]
            report = self._check(
                model.initial_state(assignment), facet, sampled=index == 0
            )
            total += report.states_explored
            if not report.satisfied:
                return report
        return TaskReport(
            verdict=Verdict.SATISFIED,
            input_facet=None,
            execution=None,
            cycle=None,
            detail=f"all {len(facets)} input facets decide and are valid",
            states_explored=total,
        )

    def decided_simplex(self, state: GlobalState) -> Simplex:
        """The simplex of decisions made by non-failed processes."""
        system = self._search._system
        return _decided_simplex(
            system.failed_at(state), system.decisions(state)
        )

    # -- internals ----------------------------------------------------------
    def _check(
        self, initial_state: GlobalState, input_facet: Simplex, sampled: bool
    ) -> TaskReport:
        from repro.core.contracts import IllFormedSystemError

        search = self._search
        try:
            report = search._check_one(
                initial_state, input_facet, search.budget.meter(), None, sampled
            )
        except IllFormedSystemError as exc:
            return TaskReport(
                verdict=Verdict.ILL_FORMED,
                input_facet=input_facet,
                execution=None,
                cycle=None,
                detail=str(exc),
                states_explored=0,
                preflight=exc.report,
            )
        return TaskReport(
            verdict=report.verdict,
            input_facet=report.inputs,
            execution=report.execution,
            cycle=report.cycle,
            detail=(
                "all runs decide and are valid"
                if report.satisfied
                else report.detail
            ),
            states_explored=report.states_explored,
        )


def _decided_simplex(failed: frozenset, decisions: dict) -> Simplex:
    return Simplex((i, v) for i, v in decisions.items() if i not in failed)
