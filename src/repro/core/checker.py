"""Exhaustive consensus checking with constructive counterexamples.

Theorem 4.2 says a protocol in a valence-connected layered model cannot
satisfy *decision*, *agreement* and *validity* simultaneously.  This
module is the executable converse: given **any** finite-state protocol
bound into a layered system, :class:`ConsensusChecker` explores every
``S``-run and returns one of

* ``SATISFIED`` — all runs decide, agree, and are valid (possible only
  when the theorem's preconditions fail, e.g. ``S^t`` with a ``t+1``-round
  protocol — the layer is then *not* valence connected at the decision
  frontier);
* an ``AGREEMENT`` violation — a reachable state where two non-failed
  processes have decided differently, with the schedule that produces it;
* a ``VALIDITY`` violation — a non-failed process decided a value that is
  not any process's input in that run, with the schedule;
* a ``DECISION`` violation — a *fair-by-construction* infinite run (a
  lasso: finite prefix + repeating cycle) on which some non-failed
  process never decides;
* a ``WRITE_ONCE`` violation — a transition changed an already-set
  decision variable (a malformed protocol; none of the shipped protocols
  trigger it, but the checker guards the "system for consensus"
  condition (ii) of Section 3 rather than assuming it);
* ``UNKNOWN`` — the exploration :class:`~repro.resilience.budget.Budget`
  (states, edges, wall clock, memory) was exhausted, or the search was
  interrupted, before the state space was covered.  The report carries
  :class:`~repro.resilience.budget.BudgetStats` and a resumable
  :class:`~repro.resilience.checkpoint.ExplorationCheckpoint`;
* ``ILL_FORMED`` — the default-on contract checks
  (:mod:`repro.core.contracts`, run inside the search) found the *system
  itself* violating a model-side hygiene condition (nondeterministic
  successors, shrinking ``failed_at``, revoked decisions, empty layers,
  unhashable states) on an edge the search computed, or a refuting
  witness failed to replay.  Like ``UNKNOWN`` it is neither a
  satisfaction nor a refutation — the consensus verdict is meaningless
  for such a system — but unlike ``UNKNOWN`` it is a definitive
  diagnosis, carried as a :class:`~repro.core.contracts.PreflightReport` with a
  concrete witness edge per finding.  Pass ``preflight=False`` (CLI:
  ``--no-preflight``) to run the bare search.

Degradation is **sound**: violations are detected the moment their state
is generated, so any violation found before a budget trips is returned as
a definitive refutation — a budget can only ever turn would-be
``SATISFIED`` into ``UNKNOWN``, never a violation into ``SATISFIED``.
``strict=True`` restores the historical behaviour of raising
:class:`~repro.core.valence.ExplorationLimitExceeded` on exhaustion.

Every violation carries a replayable witness: the exact sequence of layer
actions from an initial state.  Replaying it through the layering
(:func:`replay_witness`) reproduces the violation — with the contract
checks on, the checker replays every refuting witness through the
uncached system, run without the search's protocol tables, before
reporting it, and the fault-injection harness (``tests/mutation.py``)
uses the same replay to validate the checker itself.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.graph import Walk, walk
from repro.core.run import Execution, RunWitness
from repro.core.state import GlobalState, StateFacts, revoked_decision
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    BudgetStats,
    DEFAULT_MAX_STATES,
)
from repro.resilience.checkpoint import (
    CheckAllCheckpoint,
    ExplorationCheckpoint,
    system_fingerprint,
)
from repro.resilience.crashpoint import crashpoint

if TYPE_CHECKING:
    from repro.resilience.pool import PoolConfig


class Verdict(Enum):
    """Outcome categories for a consensus check."""

    SATISFIED = "satisfied"
    AGREEMENT = "agreement-violation"
    VALIDITY = "validity-violation"
    DECISION = "decision-violation"
    WRITE_ONCE = "write-once-violation"
    UNKNOWN = "unknown"
    ILL_FORMED = "ill-formed"


#: The verdicts that constitute a definitive refutation (a violation with
#: a replayable witness) — everything except SATISFIED and UNKNOWN.
VIOLATIONS = frozenset(
    {Verdict.AGREEMENT, Verdict.VALIDITY, Verdict.DECISION, Verdict.WRITE_ONCE}
)


@dataclass(frozen=True)
class ConsensusReport:
    """The result of checking one protocol in one layered system.

    Attributes:
        verdict: the outcome category.
        inputs: the input assignment of the violating run (None when
            satisfied).
        execution: for safety violations, the layer-action path from the
            initial state to the violating state; for decision violations,
            the lasso prefix.  None when satisfied.
        cycle: for decision violations, the repeating cycle of the lasso.
        detail: human-readable description of what was observed.
        states_explored: total distinct states visited.
        budget_stats: resource-consumption snapshot; always present on
            ``UNKNOWN`` verdicts (naming the tripped limit), and None on
            reports produced before budgets existed.
        checkpoint: a resumable exploration snapshot, present exactly on
            ``UNKNOWN`` verdicts.  Pass it back to ``check`` /
            ``check_all`` to continue (a campaign journal's ``suspend``
            record keeps it on disk).
        preflight: the :class:`~repro.core.contracts.PreflightReport` behind an
            ``ILL_FORMED`` verdict (findings with witness edges, and the
            states and edges checked before the finding); None on every
            other verdict.  An ``ILL_FORMED`` report counts no explored
            states: its search is evidence of nothing.
    """

    verdict: Verdict
    inputs: Optional[tuple]
    execution: Optional[Execution]
    cycle: Optional[Execution]
    detail: str
    states_explored: int
    budget_stats: Optional[BudgetStats] = None
    checkpoint: Optional[object] = None
    preflight: Optional[object] = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    @property
    def ill_formed(self) -> bool:
        """True when the contract checks refused the system."""
        return self.verdict is Verdict.ILL_FORMED

    @property
    def inconclusive(self) -> bool:
        """True when the budget ran out before a verdict was reached."""
        return self.verdict is Verdict.UNKNOWN

    @property
    def refuted(self) -> bool:
        """True when a genuine violation (with witness) was found."""
        return self.verdict in VIOLATIONS

    @property
    def interrupted(self) -> bool:
        """True when the exploration was stopped by KeyboardInterrupt."""
        return (
            self.budget_stats is not None
            and self.budget_stats.limit == "interrupted"
        )

    def run_witness(self) -> RunWitness:
        """The infinite-run witness of a decision violation."""
        if self.verdict is not Verdict.DECISION:
            raise ValueError("only decision violations carry a run witness")
        assert self.execution is not None and self.cycle is not None
        return RunWitness(self.execution, self.cycle)


class ConsensusChecker:
    """Exhaustively check the three consensus requirements.

    Args:
        system: a :class:`SuccessorSystem` (layering or model).
        max_states: exploration budget per input assignment — a legacy
            state count (deprecated alias) or a full
            :class:`~repro.resilience.budget.Budget`.
        strict: if True, budget exhaustion raises
            :class:`ExplorationLimitExceeded` as it historically did;
            by default it degrades to an ``UNKNOWN`` report carrying
            statistics and a resumable checkpoint.
        cache: memoize the successor system (see
            :func:`repro.core.cache.resolve_cache`): ``True`` for an
            unbounded cache shared across every assignment this checker
            sweeps, an int for an LRU bound, or a prebuilt
            :class:`~repro.core.cache.CachedSystem` shared with other
            engines.  Verdicts, witnesses and checkpoints are identical
            either way; in a parallel ``check_all`` each worker warms its
            own cache (caches never cross processes).
        preflight: run the RP2xx contract checks
            (:class:`repro.core.contracts.ContractGuard`) inside the
            search, returning an ``ILL_FORMED`` report (or raising
            :class:`~repro.core.contracts.IllFormedSystemError` when *strict*)
            instead of a verdict on an ill-formed system.  Closure,
            ``Faulty`` monotonicity, write-once and hashability are
            checked on every edge the search computes, before any
            verdict that rests on it; the determinism double-call and
            the per-primitive embedding run on the first states the
            search expands in a sweep's first assignment, against the
            *uncached* system without the search's protocol tables
            (:func:`~repro.core.contracts.independent_view`).  Every
            refuting witness is replayed through that same view before
            it is reported; one that does not replay is ILL_FORMED
            (RP201).  Default on;
            ``preflight=False`` runs the bare search.
    """

    def __init__(
        self,
        system,
        max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
        strict: bool = False,
        cache=None,
        preflight: bool = True,
    ) -> None:
        from repro.core.cache import resolve_cache

        self._system = resolve_cache(system, cache)
        self._budget = Budget.of(max_states)
        self._strict = strict
        self._preflight = preflight

    @property
    def budget(self) -> Budget:
        """The budget charged per input assignment."""
        return self._budget

    def cache_stats(self):
        """The cache's counters (``None`` when running uncached)."""
        from repro.core.cache import CachedSystem

        if isinstance(self._system, CachedSystem):
            return self._system.stats()
        return None

    def check(
        self,
        initial_state: GlobalState,
        inputs: Sequence[Hashable],
        checkpoint: Optional[ExplorationCheckpoint] = None,
    ) -> ConsensusReport:
        """Check all runs from one initial state (one input assignment).

        Pass a *checkpoint* from a previous ``UNKNOWN`` report to resume
        the breadth-first search exactly where it stopped; the search is
        deterministic, so the eventual verdict (and witness) is identical
        to an uninterrupted run.  Each invocation charges a fresh budget
        window (except the wall-clock deadline, which is anchored on the
        ``Budget`` itself).
        """
        return self._check_one(
            initial_state, tuple(inputs), self._budget.meter(), checkpoint
        )

    def check_all(
        self,
        model,
        value_domain: Sequence[Hashable] = (0, 1),
        checkpoint: Optional[CheckAllCheckpoint] = None,
        workers: Optional[int] = None,
        pool: Optional[PoolConfig] = None,
    ) -> ConsensusReport:
        """Check every input assignment; return the first violation found,
        or an aggregate SATISFIED report.

        On budget exhaustion the aggregate verdict is ``UNKNOWN`` with a
        :class:`~repro.resilience.checkpoint.CheckAllCheckpoint` recording the
        deterministic assignment cursor plus the in-flight assignment's
        exploration snapshot; pass it back to resume.

        With ``workers > 1`` the sweep's root frontier (its input
        assignments) is split into shards of one assignment each and run
        across a fault-isolated worker pool (:mod:`repro.resilience.pool`).
        The system and model ship **once per worker** as shared context;
        shard payloads carry only an assignment index, so dispatch cost
        is O(shard descriptor).  Each assignment's BFS runs against its own
        budget meter — exactly the per-assignment metering of the
        sequential path — and the per-assignment reports are merged **in
        assignment order**, so the returned report (verdict, witness,
        statistics, checkpoint) is identical to the sequential run's,
        whatever the stealing schedule.  The sweep runs as a campaign of
        one: the pooled path of
        :func:`repro.analysis.campaign.run_campaign`.  The merge runs as
        soon as the sweep is decided — its completed shards reach, in
        assignment order, the first non-SATISFIED report — and the shards after
        that point are withdrawn: unstarted ones are never dispatched
        and running ones are stopped, so a refuting sweep does no work
        past the moment it is decided.  A shard whose worker crashes
        repeatedly is *quarantined*: the sweep reports ``UNKNOWN`` at
        that shard's cursor with the crash cause in the detail
        (resumable from that index), instead of the whole sweep dying
        with the worker.  Wall-clock-limited budgets are the one
        intentional semantic difference: the deadline is shared, so
        under time pressure a parallel run covers more assignments
        before tripping.
        """
        plan = _SweepPlan(self, model, value_domain, checkpoint)
        assignments = plan.assignments
        if workers is not None and workers > 1 and len(assignments) - plan.start > 1:
            # The pool is a driver: the engine loads it only on this path.
            from repro.analysis.campaign import run_sweeps

            run_sweeps({None: plan}, pool, workers)
            return plan.report
        for index, inner in plan.spans:
            plan.offer(
                index,
                self._check_assignment(
                    model, assignments, index, inner, plan.start
                ),
            )
            if plan.report is not None:
                break
        return plan.report

    def _check_assignment(
        self,
        model,
        assignments: list,
        index: int,
        inner: Optional[ExplorationCheckpoint],
        start: int,
    ) -> ConsensusReport:
        """Check assignment *index* of a sweep, resuming from *inner*.

        Each assignment charges its own fresh budget meter; the sweep's
        first assignment *start* also runs the sampled contract checks,
        so sequential and pooled sweeps sample the same states.
        """
        assignment = assignments[index]
        return self._check_one(
            model.initial_state(assignment),
            assignment,
            self._budget.meter(),
            inner,
            sampled=index == start,
        )

    # -- internals ----------------------------------------------------------
    def _check_one(
        self,
        initial_state: GlobalState,
        inputs: Any,
        meter: BudgetMeter,
        checkpoint: Optional[ExplorationCheckpoint],
        sampled: bool = True,
    ) -> ConsensusReport:
        """One assignment's search, with the contract checks fused into
        it when the stage is on (*sampled*: also the sampled checks).
        *inputs* are what :meth:`_state_problem` reads: the assignment
        tuple here, an input facet in the task checker's search."""
        facts = StateFacts(self._system)
        if not self._preflight:
            return self._search(
                initial_state, inputs, meter, checkpoint, facts, None
            )
        from repro.core import contracts

        guard = contracts.ContractGuard(self._system, facts)
        if not sampled:
            guard.determinism_samples = guard.embedding_samples = 0
        try:
            report = self._search(
                initial_state, inputs, meter, checkpoint, facts, guard
            )
        except TypeError as exc:
            # As in the probe: hashing a state is where an unhashable
            # component surfaces first, in the search and its cache alike.
            guard.unhashable(exc)
            report = None
        # The post-condition: a refutation the guard's independent view
        # cannot replay rests on successors() that changed since the
        # search.
        try:
            gap = report is not None and report.refuted and _witness_gap(
                guard.system, report, self._state_problem
            )
        except KeyboardInterrupt:
            if self._strict:
                raise
            # The search is done but its maps are not kept: checkpoint an
            # empty search, which resumes from the root.
            return self._unknown_report(
                inputs, Walk(), meter, meter.mark_interrupted()
            )
        if gap:
            guard.record(
                contracts.RP201,
                "the refuting witness does not replay",
                contracts.ContractWitness(*gap),
            )
        if report is not None and not guard.findings:
            return report
        preflight = guard.report()
        if self._strict:
            preflight.raise_if_ill_formed()
        return ConsensusReport(
            verdict=Verdict.ILL_FORMED,
            inputs=inputs,
            execution=None,
            cycle=None,
            detail=preflight.describe(),
            states_explored=0,
            preflight=preflight,
        )

    def _search(
        self,
        initial_state: GlobalState,
        inputs: tuple,
        meter: BudgetMeter,
        checkpoint: Optional[ExplorationCheckpoint],
        facts: StateFacts,
        guard,
    ) -> Optional[ConsensusReport]:
        """The walk and the lasso pass; None when *guard* recorded a
        finding on a state the walk expanded.

        The walk (:func:`~repro.core.graph.walk`) stops at terminal
        states, tests the safety predicate once per state, when the
        state is first filed, and, with the guard off, the write-once
        test on every edge.  An interrupt leaves the walk a consistent
        checkpoint: every filed state is queued, expanded or terminal.
        """
        system = self._system
        graph = Walk()
        if checkpoint is not None:
            checkpoint.validate_for(system, inputs)
            graph = Walk(
                parent=checkpoint.parent,
                queue=deque(checkpoint.queue),
                terminal=checkpoint.terminal,
                succ=checkpoint.edges,
            )

        def sink(state: GlobalState) -> bool:
            # Terminal: every non-failed process has decided.
            failed, decided = facts[state]
            return all(i in decided for i in range(state.n) if i not in failed)

        def filed(state: GlobalState) -> Optional[tuple]:
            problem = self._state_problem(state, inputs, facts)
            if problem is None:
                return None
            return problem[0], state, problem[1], None

        def write_once(state: GlobalState, action, child) -> Optional[tuple]:
            # With the guard on, its RP204 check sees every edge.  The
            # witness is the edge the revocation was SEEN on: the BFS
            # parent of an already-filed child may reach it by a path on
            # which the register never held the old value.
            revoked = revoked_decision(facts[state][1], facts[child][1])
            if revoked is None:
                return None
            return Verdict.WRITE_ONCE, state, revoked, (action, child)

        try:
            walk(
                system,
                (initial_state,),
                meter,
                sink,
                graph=graph,
                guard=guard,
                filed=filed,
                edge=write_once if guard is None else None,
            )
            lasso = None
            if graph.found is None and graph.tripped is None:
                lasso = self._find_undecided_lasso(
                    initial_state, graph, facts, meter
                )
        except KeyboardInterrupt:
            if self._strict:
                raise
            return self._unknown_report(
                inputs, graph, meter, meter.mark_interrupted()
            )
        if graph.found is True:
            return None
        if graph.found is not None:
            verdict, state, detail, via = graph.found
            return self._safety_report(
                verdict, state, graph.parent, inputs, detail, via
            )
        if graph.tripped is not None:
            return self._unknown_report(inputs, graph, meter, graph.tripped)
        if lasso == "tripped":
            return self._unknown_report(inputs, graph, meter, meter.tripped)
        if lasso is not None:
            prefix, cycle = lasso
            return ConsensusReport(
                verdict=Verdict.DECISION,
                inputs=inputs,
                execution=prefix,
                cycle=cycle,
                detail=(
                    "fair infinite run on which some non-failed process "
                    "never decides"
                ),
                states_explored=len(graph.parent),
                budget_stats=meter.stats(),
            )
        return ConsensusReport(
            verdict=Verdict.SATISFIED,
            inputs=None,
            execution=None,
            cycle=None,
            detail="all runs decide, agree and are valid",
            states_explored=len(graph.parent),
            budget_stats=meter.stats(),
        )

    def _unknown_report(
        self,
        inputs: tuple,
        graph: Walk,
        meter: BudgetMeter,
        tripped: Optional[str],
    ) -> ConsensusReport:
        """Build the graceful-degradation report (or raise when strict)."""
        crashpoint("checker.budget.trip")
        explored = len(graph.parent)
        if self._strict:
            raise ExplorationLimitExceeded(
                f"exploration budget exhausted ({tripped}) after "
                f"{explored} states from inputs {inputs!r}"
            )
        stats = meter.stats(frontier=len(graph.queue))
        cp = ExplorationCheckpoint(
            fingerprint=system_fingerprint(self._system),
            inputs=inputs,
            parent=graph.parent,
            queue=list(graph.queue),
            terminal=graph.terminal,
            edges=graph.succ,
            limit=tripped,
            states_seen=explored,
        )
        return ConsensusReport(
            verdict=Verdict.UNKNOWN,
            inputs=inputs,
            execution=None,
            cycle=None,
            detail=(
                f"inconclusive: {stats.describe()}; no violation found "
                "before the budget tripped (resume from the checkpoint "
                "to continue)"
            ),
            states_explored=explored,
            budget_stats=stats,
            checkpoint=cp,
        )

    @staticmethod
    def _state_problem(
        state: GlobalState, inputs: Any, facts: StateFacts
    ) -> Optional[tuple[Verdict, str]]:
        """The safety predicate on one state: the violation it exhibits
        in a run with these *inputs*, as ``(verdict, detail)``, or None.

        The search tests it on every state it generates, and the witness
        replay on a refutation's final state; the task checker overrides
        it with Δ-membership (its runs' *inputs* are input facets).
        """
        failed, decided = facts[state]
        decisions = {i: v for i, v in decided.items() if i not in failed}
        distinct = set(decisions.values())
        if len(distinct) > 1:
            return (
                Verdict.AGREEMENT,
                f"non-failed processes decided differently: {decisions!r}",
            )
        for i, v in decisions.items():
            if v not in inputs:
                return (
                    Verdict.VALIDITY,
                    f"process {i} decided {v!r}, not an input of this run",
                )
        return None

    def _safety_report(
        self,
        verdict: Verdict,
        state: GlobalState,
        parent: dict,
        inputs: tuple,
        detail: str,
        via: Optional[tuple],
    ) -> ConsensusReport:
        """A safety refutation at *state*, counting the states filed so
        far: the walk stops on the spot, before the state's later
        siblings are filed."""
        execution = _path_to(state, parent)
        if via is not None:
            # Append the specific offending edge (action, child) so the
            # witness demonstrates the violation on the very transition
            # it was detected on, not on the BFS discovery path.
            action, child = via
            execution = Execution(
                execution.states + (child,), execution.actions + (action,)
            )
        return ConsensusReport(
            verdict=verdict,
            inputs=inputs,
            execution=execution,
            cycle=None,
            detail=detail,
            states_explored=len(parent),
        )

    def _find_undecided_lasso(
        self,
        initial_state: GlobalState,
        graph: Walk,
        facts: StateFacts,
        meter: BudgetMeter,
    ):
        """A fair infinite run starving a nonfaulty process, as a lasso.

        For each process ``i`` we restrict the explored graph to the edges
        along which ``i`` stays nonfaulty (``nonfaulty_under`` on the
        action, non-failed at the endpoint) between states where ``i`` is
        undecided, and look for any cycle.  A cycle there, looped forever,
        is a run in which ``i`` is nonfaulty and never decides — a genuine
        violation of the decision requirement.  Decisions are write-once,
        so restricting to ``i``-undecided states loses nothing; and the
        per-process decomposition is complete: any violating run starves
        some specific nonfaulty process.  The prefix from the initial
        state to the cycle may use arbitrary edges: it is the search's BFS
        path to the cycle's first state, read off the walk's parent pointers.

        Returns the ``(prefix, cycle)`` pair, None when no process can be
        starved, or the sentinel string ``"tripped"`` when the wall-clock
        budget ran out between per-process passes (the BFS is already
        complete at that point, so a resumed run redoes only this phase).
        """
        nonfaulty_under = self._system.nonfaulty_under
        # action -> nonfaulty_under(action), asked once per distinct action.
        nonfaulty: dict[Hashable, frozenset[int]] = {}
        terminal = graph.terminal
        for i in range(initial_state.n):
            if meter.poll() is not None:
                return "tripped"
            restricted: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = {}
            for state, succs in graph.succ.items():
                failed, decided = facts[state]
                if i in decided or i in failed:
                    continue
                kept = []
                for action, child in succs:
                    if child in terminal:
                        continue
                    spared = nonfaulty.get(action)
                    if spared is None:
                        spared = nonfaulty[action] = nonfaulty_under(action)
                    if i not in spared:
                        continue
                    failed, decided = facts[child]
                    if i not in failed and i not in decided:
                        kept.append((action, child))
                if kept:
                    restricted[state] = kept
            cycle = _find_cycle(restricted)
            if cycle is not None:
                return _path_to(cycle.initial, graph.parent), cycle
        return None


class _SweepPlan:
    """One ``check_all`` sweep: its assignments, where it resumes, its
    shard spans, and the merge of their reports.

    Built once per sweep from its resume checkpoint.  ``spans`` are
    ``(index, inner)``: one assignment each, with the resumed
    assignment's exploration checkpoint on the first span only.  Span
    reports may be offered in any order.  Walking the spans in
    assignment order, the sweep is *decided* at the first quarantined
    span or non-SATISFIED report (the sequential sweep stops there), or
    once every span is in; the merge is a left fold over the reports of
    that prefix, so the report is the same under any schedule, and the
    spans after the prefix could never change it.
    """

    def __init__(self, checker, model, domain, checkpoint):
        self.checker = checker
        self.model = model
        self.domain = tuple(domain)
        self.assignments = list(product(self.domain, repeat=model.n))
        self.start, self.total, inner = 0, 0, None
        if checkpoint is not None:
            checkpoint.validate_for(checker._system, model.n, self.domain)
            self.start = checkpoint.assignment_index
            self.total = checkpoint.states_total
            inner = checkpoint.inner
        self.spans = [
            (index, inner if index == self.start else None)
            for index in range(self.start, len(self.assignments))
        ]
        self._offered: dict = {}
        self._cursor = 0
        self.report: Optional[ConsensusReport] = (
            None if self.spans else self._satisfied()
        )

    def offer(
        self, index: int, report: Optional[ConsensusReport], cause: str = ""
    ) -> Optional[list]:
        """Fold the report of the span at *index* (None, with the pool's
        *cause*, when the span was quarantined).

        Returns None while the sweep is undecided, and for spans offered
        after it was decided; on the span that decides it, sets
        :attr:`report` and returns the indices of the spans not offered.
        """
        if self.report is not None:
            return None
        self._offered[index] = (report, cause)
        while self.report is None:
            if self._cursor == len(self.spans):
                self.report = self._satisfied()
                break
            index, _ = self.spans[self._cursor]
            if index not in self._offered:
                return None
            self._cursor += 1
            report, cause = self._offered[index]
            if report is None:
                self.report = self._quarantined(index, cause)
            else:
                self.report = self._fold(index, report)
        return [
            index for index, _ in self.spans[self._cursor:]
            if index not in self._offered
        ]

    def _fold(
        self, index: int, report: ConsensusReport
    ) -> Optional[ConsensusReport]:
        """The sweep's report if it stops at this assignment, else None."""
        if report.inconclusive:
            assignment = self.assignments[index]
            return ConsensusReport(
                verdict=Verdict.UNKNOWN,
                inputs=assignment,
                execution=None,
                cycle=None,
                detail=(
                    f"budget exhausted on assignment {index + 1} of "
                    f"{len(self.assignments)} ({assignment!r}): "
                    f"{report.detail}"
                ),
                states_explored=self.total + report.states_explored,
                budget_stats=report.budget_stats,
                checkpoint=self._checkpoint(index, report.checkpoint),
            )
        if not report.satisfied:
            return report
        self.total += report.states_explored
        return None

    def _quarantined(self, index: int, cause: str) -> ConsensusReport:
        """UNKNOWN at an assignment whose worker kept crashing."""
        return ConsensusReport(
            verdict=Verdict.UNKNOWN,
            inputs=self.assignments[index],
            execution=None,
            cycle=None,
            detail=(
                f"assignment {index + 1} of {len(self.assignments)} "
                f"({self.assignments[index]!r}) quarantined: {cause} "
                "(resume from the checkpoint to re-run it)"
            ),
            states_explored=self.total,
            budget_stats=None,
            checkpoint=self._checkpoint(index, None),
        )

    def _checkpoint(self, index: int, inner) -> CheckAllCheckpoint:
        return CheckAllCheckpoint(
            fingerprint=system_fingerprint(self.checker._system),
            n=self.model.n,
            value_domain=self.domain,
            assignment_index=index,
            states_total=self.total,
            inner=inner,
        )

    def _satisfied(self) -> ConsensusReport:
        return ConsensusReport(
            verdict=Verdict.SATISFIED,
            inputs=None,
            execution=None,
            cycle=None,
            detail=(
                f"all {len(self.assignments)} input assignments "
                "decide, agree and are valid"
            ),
            states_explored=self.total,
        )


def replay_witness(system, report: ConsensusReport) -> bool:
    """Replay a violation witness through the system; True if it checks out.

    The replay calls the system's independent view
    (:func:`~repro.core.contracts.independent_view`), so it does not
    read back what the search's cache or protocol tables remember.

    Safety violations (AGREEMENT / VALIDITY / WRITE_ONCE): every
    transition of the execution must be a real successor edge, and the
    final state must exhibit the reported problem.  Decision violations:
    the lasso's prefix and cycle transitions must be real edges, the
    cycle must close, and some process must be non-failed, undecided and
    scheduled-nonfaulty through the whole cycle.
    """
    from repro.core.contracts import independent_view

    return (
        report.execution is not None
        and _witness_gap(
            independent_view(system), report, ConsensusChecker._state_problem
        )
        is None
    )


def _witness_gap(
    system, report: ConsensusReport, state_problem
) -> Optional[tuple]:
    """Where *report*'s witness fails to replay through *system*: the
    first transition ``(state, action, child)`` that is not an edge, or
    ``(state,)`` for the final state when every edge replays but the
    violation does not show (safety verdicts are judged by the search's
    *state_problem*); None when it replays."""
    for execution in filter(None, (report.execution, report.cycle)):
        for state, action, nxt in execution.transitions():
            if (action, nxt) not in system.successors(state):
                return state, action, nxt
    final = report.execution.final
    shown = _exhibits(system, report, final, state_problem)
    return None if shown else (final,)


def _exhibits(
    system, report: ConsensusReport, final: GlobalState, state_problem
) -> bool:
    if report.verdict in (Verdict.AGREEMENT, Verdict.VALIDITY):
        problem = state_problem(final, report.inputs, StateFacts(system))
        return problem is not None and problem[0] is report.verdict
    if report.verdict is Verdict.WRITE_ONCE:
        return report.execution.length >= 1 and revoked_decision(
            system.decisions(report.execution.states[-2]),
            system.decisions(final),
        ) is not None
    cycle = report.cycle
    if report.verdict is not Verdict.DECISION or cycle is None:
        return False
    return cycle.initial == cycle.final and any(
        all(
            i not in system.decisions(s) and i not in system.failed_at(s)
            for s in cycle.states
        )
        and all(i in system.nonfaulty_under(a) for a in cycle.actions)
        for i in range(final.n)
    )


def _path_to(state: GlobalState, parent: dict) -> Execution:
    """Reconstruct the action path from the BFS parent pointers."""
    states = [state]
    actions: list[Hashable] = []
    while parent[states[-1]] is not None:
        prev, action = parent[states[-1]]
        states.append(prev)
        actions.append(action)
    states.reverse()
    actions.reverse()
    return Execution(tuple(states), tuple(actions))


def _find_cycle(
    edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]],
) -> Optional[Execution]:
    """Any cycle in an explicit edge-labelled graph, as an Execution
    starting and ending at the same state; None if the graph is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[GlobalState, int] = {}
    for root in edges:
        if color.get(root, WHITE) != WHITE:
            continue
        # DFS path as parallel stacks of states and incoming actions.
        stack: list[tuple[GlobalState, int]] = [(root, 0)]
        path: list[GlobalState] = [root]
        path_actions: list[Hashable] = []
        color[root] = GRAY
        while stack:
            state, idx = stack.pop()
            succs = edges.get(state, [])
            advanced = False
            for k in range(idx, len(succs)):
                action, child = succs[k]
                if child not in edges:
                    continue  # child has no outgoing restricted edges
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    entry = path.index(child)
                    cycle_states = tuple(path[entry:]) + (child,)
                    cycle_actions = tuple(path_actions[entry:]) + (action,)
                    return Execution(cycle_states, cycle_actions)
                if child_color == WHITE:
                    stack.append((state, k + 1))
                    stack.append((child, 0))
                    color[child] = GRAY
                    path.append(child)
                    path_actions.append(action)
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                path.pop()
                if path_actions:
                    path_actions.pop()
    return None
