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

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.cache import CacheSpec, resolve_cache
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.run import Execution
from repro.core.state import GlobalState, StateFacts, revoked_decision
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.tasks.problem import DecisionProblem
from repro.tasks.simplex import Simplex


@dataclass(frozen=True)
class TaskReport:
    """The result of checking one protocol against one task.

    ``preflight`` carries the :class:`~repro.lint.PreflightReport`
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
        """True when the contract preflight refused the system."""
        return self.verdict is Verdict.ILL_FORMED


class TaskChecker:
    """Exhaustively check decision + validity for a decision problem.

    Reuses the consensus checker's exploration and lasso machinery; only
    the state-level safety predicate differs (Δ-membership instead of
    agreement/value-validity).

    ``max_states`` accepts a state count or a full
    :class:`~repro.resilience.Budget`.  The task checker is always
    *strict*: exhaustion raises
    :class:`~repro.core.valence.ExplorationLimitExceeded` (the
    solvability drivers interpret a SATISFIED report as a solvability
    claim, which a silently truncated search cannot support).

    ``cache`` memoizes the system's successor/failure/decision queries
    (see :func:`repro.core.cache.resolve_cache`); reports are identical
    cached or uncached.

    ``preflight`` (default on) runs the bounded contract preflight
    (:mod:`repro.lint.contracts`) before the first exploration and
    returns an ``ILL_FORMED`` report instead of exploring an ill-formed
    system; ``preflight=False`` reproduces historical behaviour exactly.
    """

    def __init__(
        self,
        system,
        problem: DecisionProblem,
        max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
        cache: CacheSpec = None,
        preflight: bool = True,
    ) -> None:
        self._system = resolve_cache(system, cache)
        self._problem = problem
        self._budget = Budget.of(max_states)
        self._preflight = preflight

    def _preflight_gate(
        self, roots, input_facet: Optional[Simplex]
    ) -> Optional[TaskReport]:
        """Run the contract preflight once; the ILL_FORMED report if it
        failed, else None."""
        if not self._preflight:
            return None
        from repro.lint.contracts import preflight_once

        report = preflight_once(self._system, roots)
        if report is None or report.ok:
            return None
        return TaskReport(
            verdict=Verdict.ILL_FORMED,
            input_facet=input_facet,
            execution=None,
            cycle=None,
            detail=report.describe(),
            states_explored=0,
            preflight=report,
        )

    def check(
        self, initial_state: GlobalState, input_facet: Simplex
    ) -> TaskReport:
        """Check all runs from the initial state of one input facet."""
        refused = self._preflight_gate([initial_state], input_facet)
        if refused is not None:
            return refused
        system = self._system
        problem = self._problem
        helper = ConsensusChecker(system, self._budget)
        facts = StateFacts(system)
        meter = self._budget.meter()
        parent: dict[GlobalState, Optional[tuple]] = {initial_state: None}
        queue: deque[GlobalState] = deque([initial_state])
        terminal: set[GlobalState] = set()
        edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = {}
        meter.charge_state(initial_state)

        problem_detail = self._validity_problem(initial_state, input_facet)
        if problem_detail is not None:
            return self._report(
                Verdict.VALIDITY, input_facet, initial_state, parent,
                problem_detail, 1,
            )

        while queue:
            tripped = meter.poll()
            if tripped is not None:
                raise ExplorationLimitExceeded(
                    f"task-check budget exhausted ({tripped}) after "
                    f"{len(parent)} states from {input_facet!r}"
                )
            state = queue.popleft()
            if helper._all_nonfailed_decided(state, facts):
                terminal.add(state)
                continue
            succs = system.successors(state)
            edges[state] = succs
            for action, child in succs:
                meter.charge_edge()
                fresh = child not in parent
                if fresh:
                    parent[child] = (state, action)
                    meter.charge_state(child)
                    queue.append(child)
                write_once = revoked_decision(facts[state][1], facts[child][1])
                if write_once is not None:
                    return self._report(
                        Verdict.WRITE_ONCE, input_facet, child, parent,
                        write_once, len(parent),
                    )
                detail = self._validity_problem(child, input_facet)
                if detail is not None:
                    return self._report(
                        Verdict.VALIDITY, input_facet, child, parent,
                        detail, len(parent),
                    )

        lasso = helper._find_undecided_lasso(
            initial_state, edges, terminal, facts
        )
        if lasso is not None:
            prefix, cycle = lasso
            return TaskReport(
                verdict=Verdict.DECISION,
                input_facet=input_facet,
                execution=prefix,
                cycle=cycle,
                detail=(
                    "fair infinite run on which some non-failed process "
                    "never decides"
                ),
                states_explored=len(parent),
            )
        return TaskReport(
            verdict=Verdict.SATISFIED,
            input_facet=None,
            execution=None,
            cycle=None,
            detail="all runs decide and are valid",
            states_explored=len(parent),
        )

    def check_all(self, model) -> TaskReport:
        """Check every input facet of the problem."""
        total = 0
        facets = sorted(self._problem.input_facets(), key=repr)
        for facet in facets:
            assignment = [facet.value_of(i) for i in range(self._problem.n)]
            report = self.check(model.initial_state(assignment), facet)
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

    # -- internals ----------------------------------------------------------
    def decided_simplex(self, state: GlobalState) -> Simplex:
        """The simplex of decisions made by non-failed processes."""
        failed = self._system.failed_at(state)
        return Simplex(
            (i, v)
            for i, v in self._system.decisions(state).items()
            if i not in failed
        )

    def _validity_problem(
        self, state: GlobalState, input_facet: Simplex
    ) -> Optional[str]:
        decided = self.decided_simplex(state)
        if not self._problem.acceptable(input_facet, decided):
            return (
                f"decided simplex {decided!r} not acceptable for input "
                f"{input_facet!r}"
            )
        return None

    def _report(
        self,
        verdict: Verdict,
        input_facet: Simplex,
        state: GlobalState,
        parent: dict,
        detail: str,
        explored: int,
    ) -> TaskReport:
        from repro.core.checker import _path_to

        return TaskReport(
            verdict=verdict,
            input_facet=input_facet,
            execution=_path_to(state, parent),
            cycle=None,
            detail=detail,
            states_explored=explored,
        )
