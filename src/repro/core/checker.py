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
* ``UNKNOWN`` — the exploration :class:`~repro.resilience.Budget`
  (states, edges, wall clock, memory) was exhausted, or the search was
  interrupted, before the state space was covered.  The report carries
  :class:`~repro.resilience.BudgetStats` and a resumable
  :class:`~repro.resilience.ExplorationCheckpoint`;
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
reporting it, and the fault-injection harness
(:mod:`repro.resilience.mutation`) uses the same replay to validate the
checker itself.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product
from typing import Any, Optional, Union

from repro.core.run import Execution, RunWitness
from repro.core.state import GlobalState, StateFacts, revoked_decision
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    BudgetStats,
    DEFAULT_MAX_STATES,
)
from repro.resilience.chaos import crashpoint
from repro.resilience.checkpoint import (
    CheckAllCheckpoint,
    ExplorationCheckpoint,
    system_fingerprint,
)
from repro.resilience.pool import (
    PoolConfig,
    UnitOutcome,
    run_units,
    with_workers,
)


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
            ``check_all`` (or save it with
            :func:`repro.resilience.save_checkpoint`) to continue.
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
            :class:`~repro.resilience.Budget`.
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
        shard_states: Optional[int] = None,
    ) -> ConsensusReport:
        """Check every input assignment; return the first violation found,
        or an aggregate SATISFIED report.

        On budget exhaustion the aggregate verdict is ``UNKNOWN`` with a
        :class:`~repro.resilience.CheckAllCheckpoint` recording the
        deterministic assignment cursor plus the in-flight assignment's
        exploration snapshot; pass it back to resume.

        With ``workers > 1`` the sweep's root frontier (its input
        assignments) is split into shards of ``shard_states`` assignments
        each (default 1 — maximal stealing granularity) and run across a
        fault-isolated worker pool (:mod:`repro.resilience.pool`).  The
        system and model ship **once per worker** as shared context;
        shard payloads carry only an index span, so dispatch cost is
        O(shard descriptor).  Each assignment's BFS runs against its own
        budget meter — exactly the per-assignment metering of the
        sequential path — and the per-assignment reports are merged **in
        assignment order**, so the returned report (verdict, witness,
        statistics, checkpoint) is identical to the sequential run's,
        whatever the stealing schedule.  The sweep runs as a campaign of
        one: the pooled path of :func:`run_campaign`.  The merge runs as soon as the
        sweep is decided — its completed shards reach, in assignment
        order, the first non-SATISFIED report — and the shards after
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
        plan = _SweepPlan(self, model, value_domain, checkpoint, shard_states)
        assignments = plan.assignments
        if workers is not None and workers > 1 and len(assignments) - plan.start > 1:
            _run_sweeps({None: plan}, with_workers(pool, workers))
            return plan.report
        for lo, hi, inner in plan.spans:
            plan.offer(
                lo,
                self._check_span(model, assignments, lo, hi, inner, plan.start),
            )
            if plan.report is not None:
                break
        return plan.report

    def _check_span(
        self,
        model,
        assignments: list,
        lo: int,
        hi: int,
        inner: Optional[ExplorationCheckpoint],
        start: int,
    ) -> list[ConsensusReport]:
        """Check assignments ``lo .. hi-1`` of a sweep, the first resuming
        from *inner*; their reports in assignment order, truncated at the
        first non-SATISFIED one (the sweep stops there).

        Each assignment charges its own fresh budget meter; the sweep's
        first assignment *start* also runs the sampled contract checks,
        so sequential and pooled sweeps sample the same states.
        """
        reports: list[ConsensusReport] = []
        for index in range(lo, hi):
            assignment = assignments[index]
            report = self._check_one(
                model.initial_state(assignment),
                assignment,
                self._budget.meter(),
                inner if index == lo else None,
                sampled=index == start,
            )
            reports.append(report)
            if not report.satisfied:
                break
        return reports

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
                inputs, {}, deque(), set(), {}, meter, meter.mark_interrupted()
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
        """The BFS and lasso passes; None when *guard* recorded a finding
        on a state it expanded.

        The safety predicate runs once per state, when the state is first
        filed in *parent*; the write-once test runs on every edge.  Every
        state in *parent* is queued, expanded or terminal, also in the
        checkpoint of an interrupted search: an interrupt rolls back the
        children the half-expanded state filed, so its re-expansion on
        resume files and checks them again.
        """
        system = self._system

        if checkpoint is not None:
            checkpoint.validate_for(system, inputs)
            parent = checkpoint.parent
            queue: deque[GlobalState] = deque(checkpoint.queue)
            terminal = checkpoint.terminal
            edges = checkpoint.edges
        else:
            parent, queue, terminal, edges = {}, deque(), set(), {}

        def interrupted(filed: list) -> ConsensusReport:
            """Undo the filing of *filed*, then degrade to a checkpoint."""
            for child in filed:
                parent.pop(child, None)
            while queue and queue[-1] in filed:
                queue.pop()
            return self._unknown_report(
                inputs,
                parent,
                queue,
                terminal,
                edges,
                meter,
                meter.mark_interrupted(),
            )

        if not parent:
            # Seeding files the root as an expansion files a child.
            filed = [initial_state]
            try:
                parent[initial_state] = None
                meter.charge_state(initial_state)
                problem = self._state_problem(initial_state, inputs, facts)
                if problem is not None:
                    return self._safety_report(
                        problem[0], initial_state, parent, inputs, problem[1], 1
                    )
                queue.append(initial_state)
            except KeyboardInterrupt:
                if self._strict:
                    raise
                return interrupted(filed)

        while queue:
            tripped = meter.poll()
            if tripped is not None:
                return self._unknown_report(
                    inputs, parent, queue, terminal, edges, meter, tripped
                )
            state = queue.popleft()
            filed = []
            try:
                if self._all_nonfailed_decided(state, facts):
                    terminal.add(state)
                    continue
                succs = system.successors(state)
                if guard is not None and guard.check(state, succs):
                    return None
                edges[state] = succs
                for action, child in succs:
                    meter.charge_edge()
                    fresh = child not in parent
                    if fresh:
                        filed.append(child)
                        parent[child] = (state, action)
                        meter.charge_state(child)
                    # With the guard on, its RP204 check saw this edge.
                    write_once = guard is None and revoked_decision(
                        facts[state][1], facts[child][1]
                    )
                    if write_once:
                        # Witness the edge it was SEEN on: the BFS parent
                        # of an already-discovered child may reach it by a
                        # path on which the register never held the old
                        # value, which would not replay.
                        return self._safety_report(
                            Verdict.WRITE_ONCE,
                            state,
                            parent,
                            inputs,
                            write_once,
                            len(parent),
                            via=(action, child),
                        )
                    if not fresh:
                        # Checked when it was filed.
                        continue
                    problem = self._state_problem(child, inputs, facts)
                    if problem is not None:
                        return self._safety_report(
                            problem[0],
                            child,
                            parent,
                            inputs,
                            problem[1],
                            len(parent),
                        )
                    queue.append(child)
            except KeyboardInterrupt:
                if self._strict:
                    raise
                # Re-queue the half-processed state; re-expanding it on
                # resume files its children again.
                queue.appendleft(state)
                return interrupted(filed)

        try:
            lasso = self._find_undecided_lasso(
                initial_state, parent, edges, terminal, facts, meter
            )
        except KeyboardInterrupt:
            if self._strict:
                raise
            return self._unknown_report(
                inputs,
                parent,
                queue,
                terminal,
                edges,
                meter,
                meter.mark_interrupted(),
            )
        if lasso == "tripped":
            return self._unknown_report(
                inputs, parent, queue, terminal, edges, meter, meter.tripped
            )
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
                states_explored=len(parent),
                budget_stats=meter.stats(),
            )
        return ConsensusReport(
            verdict=Verdict.SATISFIED,
            inputs=None,
            execution=None,
            cycle=None,
            detail="all runs decide, agree and are valid",
            states_explored=len(parent),
            budget_stats=meter.stats(),
        )

    def _unknown_report(
        self,
        inputs: tuple,
        parent: dict,
        queue: deque,
        terminal: set,
        edges: dict,
        meter: BudgetMeter,
        tripped: Optional[str],
    ) -> ConsensusReport:
        """Build the graceful-degradation report (or raise when strict)."""
        crashpoint("checker.budget.trip")
        if self._strict:
            raise ExplorationLimitExceeded(
                f"exploration budget exhausted ({tripped}) after "
                f"{len(parent)} states from inputs {inputs!r}"
            )
        stats = meter.stats(frontier=len(queue))
        cp = ExplorationCheckpoint(
            fingerprint=system_fingerprint(self._system),
            inputs=inputs,
            parent=parent,
            queue=list(queue),
            terminal=terminal,
            edges=edges,
            limit=tripped,
            states_seen=len(parent),
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
            states_explored=len(parent),
            budget_stats=stats,
            checkpoint=cp,
        )

    @staticmethod
    def _all_nonfailed_decided(state: GlobalState, facts: StateFacts) -> bool:
        failed, decided = facts[state]
        return all(i in decided for i in range(state.n) if i not in failed)

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
        explored: int,
        via: Optional[tuple] = None,
    ) -> ConsensusReport:
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
            states_explored=explored,
        )

    def _find_undecided_lasso(
        self,
        initial_state: GlobalState,
        parent: dict,
        edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]],
        terminal: set[GlobalState],
        facts: StateFacts,
        meter: Optional[BudgetMeter] = None,
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
        path to the cycle's first state, read off *parent*.

        Returns the ``(prefix, cycle)`` pair, None when no process can be
        starved, or the sentinel string ``"tripped"`` when the wall-clock
        budget ran out between per-process passes (the BFS is already
        complete at that point, so a resumed run redoes only this phase).
        """
        nonfaulty_under = self._system.nonfaulty_under
        # action -> nonfaulty_under(action), asked once per distinct action.
        nonfaulty: dict[Hashable, frozenset[int]] = {}
        n = initial_state.n
        for i in range(n):
            if meter is not None and meter.poll() is not None:
                return "tripped"
            restricted: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = {}
            for state, succs in edges.items():
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
                return _path_to(cycle.initial, parent), cycle
        return None


class _SweepPlan:
    """One ``check_all`` sweep: its assignments, where it resumes, its
    shard spans, and the merge of their reports.

    Built once per sweep from its resume checkpoint.  ``spans`` are
    ``(lo, hi, inner)``: assignments ``lo .. hi-1``, ``shard_states`` of
    them each (default 1), with the resumed assignment's exploration
    checkpoint on the first span only.  Span reports may be offered in
    any order.  Walking the spans in assignment order, the sweep is
    *decided* at the first quarantined span or non-SATISFIED report (the
    sequential sweep stops there), or once every span is in; the merge is
    a left fold over the per-assignment reports of that prefix, so the
    report is the same under any schedule, and the spans after the
    prefix could never change it.
    """

    def __init__(self, checker, model, domain, checkpoint, shard_states):
        if shard_states is not None and shard_states < 1:
            raise ValueError("shard_states must be >= 1")
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
        size = shard_states or 1
        stop = len(self.assignments)
        self.spans = [
            (lo, min(lo + size, stop), inner if lo == self.start else None)
            for lo in range(self.start, stop, size)
        ]
        self._offered: dict = {}
        self._cursor = 0
        self.report: Optional[ConsensusReport] = (
            None if self.spans else self._satisfied()
        )

    def offer(
        self, lo: int, reports: Optional[list], cause: str = ""
    ) -> Optional[list]:
        """Fold the reports of the span starting at *lo* (None, with the
        pool's *cause*, when the span was quarantined).

        Returns None while the sweep is undecided, and for spans offered
        after it was decided; on the span that decides it, sets
        :attr:`report` and returns the starts of the spans not offered.
        """
        if self.report is not None:
            return None
        self._offered[lo] = (reports, cause)
        while self.report is None:
            if self._cursor == len(self.spans):
                self.report = self._satisfied()
                break
            lo, hi, _ = self.spans[self._cursor]
            if lo not in self._offered:
                return None
            self._cursor += 1
            reports, cause = self._offered[lo]
            if reports is None:
                self.report = self._quarantined(lo, hi, cause)
            else:
                self.report = self._fold(lo, reports)
        return [
            lo for lo, _, _ in self.spans[self._cursor:]
            if lo not in self._offered
        ]

    def _fold(self, lo: int, reports: list) -> Optional[ConsensusReport]:
        """The sweep's report if it stops in this span, else None."""
        for index, report in enumerate(reports, lo):
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

    def _quarantined(self, lo: int, hi: int, cause: str) -> ConsensusReport:
        """UNKNOWN at the cursor of a span whose worker kept crashing."""
        count = len(self.assignments)
        where = (
            f"assignment {lo + 1} of {count} ({self.assignments[lo]!r})"
            if hi - lo == 1
            else f"assignments {lo + 1}-{hi} of {count}"
        )
        return ConsensusReport(
            verdict=Verdict.UNKNOWN,
            inputs=self.assignments[lo],
            execution=None,
            cycle=None,
            detail=(
                f"{where} quarantined: {cause} "
                "(resume from the checkpoint to re-run it)"
            ),
            states_explored=self.total,
            budget_stats=None,
            checkpoint=self._checkpoint(lo, None),
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


# -- the pooled sweep path ---------------------------------------------------
#
# A parallel ``check_all`` and a parallel campaign run the same way: each
# sweep's plan is split into shards (index spans), and the shards of all
# sweeps share one fault-isolated pool.  ``check_all(workers=N)`` is a
# campaign of one sweep.

def _sweep_shard(payload, context: dict) -> list:
    """Pool unit: one shard ``(key, lo, hi, inner)`` of one sweep.

    *context* maps each sweep key to its checker, model, assignments and
    first assignment.  It ships to each worker **once** via
    ``run_units(..., context=...)``, never per shard, so every shard of a
    sweep that lands on a worker shares one checker and one warm
    successor cache (a ``CachedSystem`` pickles only its configuration,
    so caches never cross processes).  Sharing one checker across shards
    is sound because cache transparency guarantees verdicts, witnesses
    and checkpoints are byte-identical cached or uncached, warm or cold.
    """
    key, lo, hi, inner = payload
    checker, model, assignments, start = context[key]
    return checker._check_span(model, assignments, lo, hi, inner, start)


def _run_sweeps(plans: dict, config: PoolConfig, on_decided=None) -> None:
    """Run the shards of the ``{key: _SweepPlan}`` sweeps on one pool.

    Shards are dispatched breadth-first — every sweep's first shard before
    any sweep's second — so idle workers open new sweeps rather than
    reading deeper into one that its first violation may already have
    decided.  A sweep is merged the moment its verdict is decided: its
    plan's report is set, ``on_decided(key, report)`` is called (at once
    for a sweep resumed past its last assignment), and its remaining
    shards are withdrawn from the pool: unstarted ones are dropped and
    running ones stopped.  Pool unit keys are ``(key, lo)``.
    """
    ranked = []
    for key, plan in plans.items():
        if plan.report is not None and on_decided is not None:
            on_decided(key, plan.report)
        for index, span in enumerate(plan.spans):
            ranked.append((index, ((key, span[0]), (key, *span))))
    if not ranked:
        return
    ranked.sort(key=lambda entry: entry[0])  # stable: sweep order breaks ties

    def decide(outcome: UnitOutcome) -> Optional[list]:
        key, lo = outcome.key
        plan = plans[key]
        unread = plan.offer(
            lo, outcome.value, outcome.cause() if outcome.quarantined else ""
        )
        if unread is None:
            return None
        if on_decided is not None:
            on_decided(key, plan.report)
        return [(key, start) for start in unread]

    context = {
        key: (p.checker, p.model, p.assignments, p.start)
        for key, p in plans.items()
    }
    run_units(
        _sweep_shard,
        [unit for _, unit in ranked],
        config,
        on_complete=decide,
        context=context,
    )


@dataclass(frozen=True)
class SweepUnit:
    """One campaign unit: a full ``check_all`` over one layered system.

    *system* and *model* are usually ``layering`` and ``layering.model``
    but may coincide (the full synchronous model checks itself).
    *resume* carries the in-flight
    :class:`~repro.resilience.CheckAllCheckpoint` when a campaign is
    resumed.  *cache* is the checker's ``cache=`` spec; a
    ``CachedSystem`` passed here (or as *system*) ships only its
    configuration across the process boundary, so each pool worker warms
    one private cache per unit — preserving the deterministic merge.
    """

    system: object
    model: object
    budget: Budget
    resume: Optional[CheckAllCheckpoint] = None
    cache: object = None
    preflight: bool = True

    def checker(self) -> ConsensusChecker:
        """The checker this unit's sweep runs on."""
        return ConsensusChecker(
            self.system, self.budget, cache=self.cache,
            preflight=self.preflight,
        )


def run_campaign(
    units: Sequence[tuple],
    campaign=None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    shard_states: Optional[int] = None,
) -> list[tuple]:
    """Run ``(key, SweepUnit)`` campaign units with shared resilience
    semantics; the engine behind the analysis drivers' ``workers=N``.

    Sequentially (``workers`` None or <= 1) units run one at a time in
    submission order, stopping after the first inconclusive report —
    continuing a sweep whose budget already tripped would be futile.
    With ``workers > 1`` every pending sweep's root frontier is split
    into shards of ``shard_states`` input assignments (default 1) and
    the shards — not the whole sweeps — are scheduled across the
    fault-isolated pool (:mod:`repro.resilience.pool`), so a campaign of
    even a *single* heavyweight sweep parallelizes.  This is the same
    pooled path a parallel ``check_all`` takes: shards dispatch
    breadth-first across sweeps, and a sweep is merged the moment its
    verdict is decided, its unstarted shards dropped and its running
    ones stopped.  Reports are merged **in submission order, in
    assignment order within each sweep** with the same early-stop rule,
    so both paths return identical results for identical inputs; a
    shard the pool quarantined merges its sweep as UNKNOWN at the
    shard's cursor (resumable) without failing its neighbours.

    A :class:`~repro.resilience.CampaignCheckpoint` is honoured and
    maintained either way: completed units are reused instantly,
    conclusive reports are recorded **the moment their sweep is
    decided** (an interrupt loses at most undecided units), and the
    first inconclusive unit's partial progress is suspended for resume.

    Returns ``(key, report)`` pairs in submission order, truncated at
    the first inconclusive report.
    """
    cached: dict = {}
    pending: dict = {}
    for key, unit in units:
        done = campaign.report_for(key) if campaign is not None else None
        if done is not None:
            cached[key] = done
            continue
        resume = campaign.resume_point(key) if campaign is not None else None
        if resume is not None:
            unit = replace(unit, resume=resume)
        pending[key] = unit

    def finish(key, report: ConsensusReport) -> None:
        crashpoint("campaign.unit.finish")
        if campaign is not None:
            if report.inconclusive:
                campaign.suspend(key, report.checkpoint)
            else:
                campaign.record(key, report)

    def decided(key, report: ConsensusReport) -> None:
        # The campaign suspends only its first inconclusive sweep (below).
        if not report.inconclusive:
            finish(key, report)

    pooled: dict = {}
    if workers is not None and workers > 1 and pending:
        plans = {
            key: _SweepPlan(
                unit.checker(), unit.model, (0, 1), unit.resume, shard_states
            )
            for key, unit in pending.items()
        }
        _run_sweeps(plans, with_workers(pool, workers), decided)
        pooled = {key: plan.report for key, plan in plans.items()}

    out: list[tuple] = []
    for key, _ in units:
        if key in cached:
            report = cached[key]
        elif key in pooled:
            report = pooled[key]
            if report.inconclusive and campaign is not None:
                campaign.suspend(key, report.checkpoint)
        else:
            unit = pending[key]
            crashpoint("campaign.unit.start")
            report = unit.checker().check_all(
                unit.model, checkpoint=unit.resume
            )
            finish(key, report)
        out.append((key, report))
        if report.inconclusive:
            break
    return out


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
