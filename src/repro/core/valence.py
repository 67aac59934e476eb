"""Exact valence computation (Section 3, "Decisions and valence").

A state ``x`` is *v-valent* when some execution extending ``x`` contains a
nonfaulty process deciding ``v``; *v-univalent* when only ``v``; *bivalent*
when at least two values are reachable.  Valence quantifies over the
(infinite) extensions of ``x`` inside a layered system, so computing it
exactly needs two ingredients this library guarantees:

1. **Finite reachable state spaces** — protocols freeze after boundedly
   many phases (:mod:`repro.protocols.base`), so the set of states
   reachable from any state under a successor function is finite.
2. **Fault independence** (Section 2) — if a process is non-failed at a
   state and has decided ``v`` there, some run through that state keeps it
   nonfaulty, so observing a decided non-failed process suffices to
   certify ``v``-valence.  Conversely a nonfaulty decision in any
   extension is a non-failed decision at some reachable state.  Hence:

   ``values(x) = own(x) ∪ ⋃ { values(y) : y ∈ S(x) }``

   where ``own(x)`` is the set of values decided by non-failed processes
   at ``x``.

The analyzer additionally reports **divergence**: whether some infinite
``S``-extension of ``x`` never reaches a state where all non-failed
processes have decided.  In a finite state space an infinite run must
revisit a state, so divergence is exactly reachability of a cycle of
non-terminal states.  Caveat: "non-failed" here means *not recorded
failed*; in the no-finite-failure models a looping schedule may be
starving the undecided process (a scheduling crash), which is no
violation — divergence is therefore an over-approximation of the
decision-requirement verdict there, and the precise check (which weighs
each cycle's actions through the ``nonfaulty_under`` hooks) lives in
:class:`repro.core.checker.ConsensusChecker`.  Divergence is a
first-class result here, not an error.

The computation builds the reachable subgraph with the shared budgeted
walk (:func:`repro.core.graph.walk`), stopping at *terminal* states — all
non-failed decided — and at already-memoized states, and folds
values/divergence over the condensation that
:func:`repro.core.graph.sccs` emits in reverse topological order.  The
SCC pass is what makes the result exact in the presence of cycles: a
naive memoized DFS would undercount the values reachable from states
inside a cycle.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Union

from repro.core.graph import sccs, walk
from repro.core.state import GlobalState
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES


class ExplorationLimitExceeded(RuntimeError):
    """Raised when an analysis would explore more states than its budget.

    Usually means the protocol under analysis does not have a finite
    reachable state space (see :mod:`repro.protocols.base`), or the model
    instance is too large for exhaustive analysis.  Engines that degrade
    gracefully (the default) report exhaustion through their results
    instead of raising; pass ``strict=True`` to restore this exception.

    ``shard`` is the index of the exploration shard whose budget tripped
    when the exception is re-raised by a *parallel* engine (``None`` for
    sequential runs) — structured so callers can retarget or re-budget
    the failing shard without parsing the message text.
    """

    def __init__(self, *args, shard: "int | None" = None):
        super().__init__(*args)
        self.shard = shard


@dataclass(frozen=True, slots=True)
class ValenceResult:
    """The exact valence of a state.

    Attributes:
        values: every value ``v`` such that the state is ``v``-valent.
        diverges: whether some infinite extension loops with a process
            that is undecided and never *recorded* failed.  In the
            synchronous model (explicit failure records) this is exactly
            a decision violation.  In the no-finite-failure models it is
            an over-approximation: the looping schedule may simply be
            crashing the undecided process by never scheduling it, which
            violates nothing.  For the precise decision-requirement
            verdict — which accounts for scheduling-faultiness via the
            ``nonfaulty_under`` hooks — use
            :class:`repro.core.checker.ConsensusChecker` or
            :class:`repro.tasks.covering.OutcomeAnalyzer`; always
            ``outcome.diverges implies valence.diverges``.
        complete: whether the analysis explored the full reachable
            subgraph.  When False (a budget tripped mid-exploration),
            ``values`` is a sound *lower bound* — every listed value is
            genuinely reachable, but others may exist — and ``diverges``
            is undetermined (reported False).  Incomplete results are
            never memoized.
    """

    values: frozenset
    diverges: bool
    complete: bool = True

    def is_v_valent(self, v: Hashable) -> bool:
        """Whether some extension decides *v* (Section 3's v-valence)."""
        return v in self.values

    @property
    def bivalent(self) -> bool:
        """At least two distinct decision values are reachable.

        Sound even for incomplete results: the listed values were all
        actually observed, so two of them certify bivalence.
        """
        return len(self.values) >= 2

    @property
    def univalent(self) -> bool:
        """Exactly one reachable decision value — requires completeness
        (an incomplete result cannot exclude further values)."""
        return self.complete and len(self.values) == 1

    def univalent_value(self) -> Hashable:
        """The unique reachable decision value of a univalent state."""
        if not self.univalent:
            raise ValueError(f"state is not univalent: {self}")
        return next(iter(self.values))

    def shares_valence_with(self, other: "ValenceResult") -> bool:
        """Definition 3.1's ``~v``: some value both states are valent for."""
        return bool(self.values & other.values)


class ValenceAnalyzer:
    """Memoized exact valence over a :class:`SuccessorSystem`.

    The analyzer may be queried repeatedly; previously finalized states
    act as sinks for later explorations, which is sound because a state's
    result already accounts for everything reachable from it.

    Args:
        system: any object with ``successors``, ``failed_at`` and
            ``decisions`` (a model or a layering).
        max_states: exploration budget shared across all queries — a
            legacy state count or a full :class:`~repro.resilience.budget.Budget`
            (states, edges, wall clock, memory).
        strict: if True, budget exhaustion raises
            :class:`ExplorationLimitExceeded` (the historical behaviour);
            by default the analyzer degrades gracefully, returning an
            incomplete :class:`ValenceResult` (``complete=False``) whose
            value set is a sound lower bound.  Proof-construction code
            (the bivalence walks, the lemma drivers) passes
            ``strict=True`` because acting on a partial valence there
            would be unsound.
        cache: memoize the successor system (see
            :func:`repro.core.cache.resolve_cache`): ``True`` for an
            unbounded cache, an int for an LRU bound, or a prebuilt
            :class:`~repro.core.cache.CachedSystem` shared with other
            engines analyzing the same system.  Results are identical
            either way.
    """

    def __init__(
        self,
        system,
        max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
        strict: bool = False,
        cache=None,
    ) -> None:
        from repro.core.cache import resolve_cache

        self._system = resolve_cache(system, cache)
        self._budget = Budget.of(max_states)
        self._meter = self._budget.meter()
        self._strict = strict
        self._memo: dict[GlobalState, ValenceResult] = {}

    @property
    def system(self):
        return self._system

    @property
    def explored_states(self) -> int:
        """Number of states with finalized results so far."""
        return len(self._memo)

    # -- state-local helpers ------------------------------------------------
    def own_values(self, state: GlobalState) -> frozenset:
        """Values decided by processes non-failed at *state*."""
        return self._read(state)[0]

    def is_terminal(self, state: GlobalState) -> bool:
        """All non-failed processes have decided — exploration stops here.

        Decisions are write-once and the failed set only grows, so beyond
        a terminal state no new value can be decided by a process that is
        non-failed anywhere on the extension.
        """
        return self._read(state)[1]

    def _read(self, state: GlobalState) -> tuple[frozenset, bool]:
        """``(own_values, is_terminal)`` from one read of the state's
        failed set and decisions."""
        failed = self._system.failed_at(state)
        decided = self._system.decisions(state)
        own = frozenset(v for i, v in decided.items() if i not in failed)
        terminal = all(
            i in decided for i in range(state.n) if i not in failed
        )
        return own, terminal

    # -- queries --------------------------------------------------------------
    def valence(self, state: GlobalState) -> ValenceResult:
        """The :class:`ValenceResult` of *state*.

        Exact (``complete=True``) whenever the exploration finishes
        within budget; on exhaustion in non-strict mode, an incomplete
        lower-bound result (see :class:`ValenceResult`) that is *not*
        memoized.
        """
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        return self._analyze(state)

    def bivalent(self, state: GlobalState) -> bool:
        """Shorthand: whether *state* is bivalent."""
        return self.valence(state).bivalent

    # -- the SCC/condensation pass ---------------------------------------------
    def _analyze(self, root: GlobalState) -> ValenceResult:
        memo = self._memo
        own_of: dict[GlobalState, frozenset] = {}

        def sink(state: GlobalState) -> bool:
            # Each state's failed set and decisions are read once, here.
            if state in memo:
                return True
            own, terminal = self._read(state)
            if terminal:
                memo[state] = ValenceResult(own, False)
                return True
            own_of[state] = own
            return False

        graph = walk(self._system, (root,), self._meter, sink)
        if graph.tripped is not None:
            if self._strict:
                raise ExplorationLimitExceeded(
                    f"valence budget exhausted ({graph.tripped}) after "
                    f"{self._meter.states} states; is the protocol "
                    "finite-state?"
                )
            values: set = set()
            for state in graph.depth:
                memoed = memo.get(state)
                if memoed is not None:
                    values |= memoed.values
                else:
                    values |= self.own_values(state)
            return ValenceResult(frozenset(values), False, complete=False)
        children: dict[GlobalState, tuple[GlobalState, ...]] = {}
        for state, pairs in graph.succ.items():
            if not pairs:
                raise AssertionError(
                    "successor functions are total: a non-terminal state "
                    "must have successors"
                )
            children[state] = tuple(dict.fromkeys(child for _, child in pairs))
        for component in sccs((root,), children):
            self._fold_component(component, own_of, children)
        return memo[root]

    def _fold_component(
        self,
        component: list[GlobalState],
        own_of: dict[GlobalState, frozenset],
        children: dict[GlobalState, tuple[GlobalState, ...]],
    ) -> None:
        """Give every member of one SCC the same result.

        :func:`~repro.core.graph.sccs` emits each SCC after every SCC
        reachable from it, so the results of its external successors are
        already memoized.  The result is the union of the members' own
        values and of their external successors' values; the members
        diverge iff the SCC is cyclic (size > 1 or a self-loop: an
        undecided infinite loop) or any external successor diverges.
        """
        members = set(component)
        values: set = set()
        # A multi-state SCC is a cycle of non-terminal states; so is a
        # self-loop.  Either way an infinite extension can stay undecided.
        diverges = len(component) > 1
        for state in component:
            values |= own_of[state]
            for child in children[state]:
                if child in members:
                    if child is state:
                        diverges = True
                    continue
                child_result = self._memo[child]
                values |= child_result.values
                diverges = diverges or child_result.diverges
        result = ValenceResult(frozenset(values), diverges)
        for state in component:
            self._memo[state] = result
