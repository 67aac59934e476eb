"""Coverings and generalized valence (Section 7).

A *covering* of a set of runs ``R`` is a pair ``O_0, O_1`` of
n-size-complexes such that every decided output simplex of a run of ``R``
lies in ``O_0 ∪ O_1`` and each side contains at least one.  Generalized
valence then replaces "decides v" by "the nonfaulty processes' decision
simplex lies in ``O_v``", and *always valence connected* means valence
connected with respect to **every** covering.

Computing this needs the set of *run outcomes* from a state: the decided
simplexes of the maximal fair runs extending it.  :class:`OutcomeAnalyzer`
computes them over a finite-state layered system with the shared state
graph (:mod:`repro.core.graph`): one walk and three uses of its SCC pass.

1. :func:`~repro.core.graph.walk` builds the reachable graph, stopping at
   already-memoized states and at *terminal* states (all non-failed
   decided); each terminal state gets its **base outcome**, the decision
   simplex of its non-failed processes;
2. for every candidate nonfaulty set ``N`` of size ``>= n-1`` (the
   paper's layerings starve at most one process per layer, so every
   fair run's nonfaulty set has at least ``n-1`` members), every cyclic
   SCC of the subgraph restricted to ``N``-preserving edges adds either
   the decision simplex of its exact loop-nonfaulty set ``M`` (when all
   of ``M`` decided — a *settled* starvation loop) to its members' base
   outcomes, or a divergence flag (some nonfaulty process looping
   undecided — a decision violation);
3. base outcomes and divergence propagate backwards over the
   condensation of the full graph, which :func:`~repro.core.graph.sccs`
   emits in reverse topological order.

Exactness note: runs that *alternate* starvation targets forever are
covered by the candidate-set passes only up to a face of their outcome;
for the protocols this library ships such runs always reach a terminal
state (everyone decides), so the computed outcome sets are exact.  See
DESIGN.md.

Quantification over coverings reduces to bipartitions of the finite
outcome set: any covering's valence relation contains some bipartition's
(assign each overlap outcome to either side), and edges only grow with
overlap, so connectivity for all bipartitions implies it for all
coverings.  :func:`always_valence_connected` enumerates the bipartitions.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Union

from repro.core.graph import sccs, walk
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.tasks.complex import Complex
from repro.tasks.simplex import Simplex
from repro.util.graphs import Graph, is_connected


@dataclass(frozen=True)
class Covering:
    """A covering ``(O_0, O_1)`` presented by two complexes."""

    side0: Complex
    side1: Complex

    def side(self, v: int) -> Complex:
        """The complex ``O_v``."""
        if v == 0:
            return self.side0
        if v == 1:
            return self.side1
        raise ValueError("coverings are binary: v in {0, 1}")

    def covers(self, outcomes: Sequence[Simplex]) -> bool:
        """Whether this pair is a covering of runs with these outcomes."""
        all_in = all(d in self.side0 or d in self.side1 for d in outcomes)
        has0 = any(d in self.side0 for d in outcomes)
        has1 = any(d in self.side1 for d in outcomes)
        return all_in and has0 and has1


@dataclass(frozen=True, slots=True)
class OutcomeResult:
    """Outcome set of a state.

    Attributes:
        outcomes: decided simplexes of the maximal fair runs extending the
            state.
        diverges: whether some fair extension violates the decision
            requirement (a loop starving a nonfaulty undecided process).
    """

    outcomes: frozenset  # of Simplex
    diverges: bool

    def valent_for(self, covering: Covering, v: int) -> bool:
        """Generalized ``v``-valence w.r.t. the covering."""
        side = covering.side(v)
        return any(d in side for d in self.outcomes)

    def bivalent_for(self, covering: Covering) -> bool:
        """Generalized bivalence: valent for both sides of the covering."""
        return self.valent_for(covering, 0) and self.valent_for(covering, 1)


class OutcomeAnalyzer:
    """Memoized run-outcome sets over a layered system (module docstring).

    ``max_states`` accepts a state count or a full
    :class:`~repro.resilience.budget.Budget` (states, edges, wall clock,
    memory).  Outcome analysis is always *strict* — the covering
    quantification acts on exact outcome sets, so a truncated set could
    flip always-valence-connectivity verdicts; budget exhaustion raises
    :class:`~repro.core.valence.ExplorationLimitExceeded`.
    """

    def __init__(
        self, system, max_states: Union[int, Budget] = DEFAULT_MAX_STATES
    ) -> None:
        self._system = system
        self._budget = Budget.of(max_states)
        self._meter = self._budget.meter()
        self._memo: dict[GlobalState, OutcomeResult] = {}

    def outcome(self, state: GlobalState) -> OutcomeResult:
        """The exact :class:`OutcomeResult` of *state* (memoized)."""
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        self._analyze(state)
        return self._memo[state]

    # -- the walk, the loop passes, the propagation ---------------------
    def _analyze(self, root: GlobalState) -> None:
        system = self._system
        memo = self._memo
        base_out: dict[GlobalState, set] = {}
        failed_of: dict[GlobalState, frozenset] = {}

        def sink(state: GlobalState) -> bool:
            if state in memo:
                return True
            failed = system.failed_at(state)
            decided = system.decisions(state)
            members = [i for i in range(state.n) if i not in failed]
            if all(i in decided for i in members):
                base_out[state] = {Simplex((i, decided[i]) for i in members)}
                return True
            failed_of[state] = failed
            return False

        graph = walk(system, (root,), self._meter, sink)
        if graph.tripped is not None:
            raise ExplorationLimitExceeded(
                f"outcome budget exhausted ({graph.tripped}) after "
                f"{self._meter.states} states"
            )
        base_div: set[GlobalState] = set()
        n = root.n
        candidates = [frozenset(range(n))] + [
            frozenset(range(n)) - {j} for j in range(n)
        ]
        for target in candidates:
            self._loop_pass(target, graph, failed_of, base_out, base_div)
        self._propagate(root, graph, base_out, base_div)

    def _loop_pass(self, target, graph, failed_of, base_out, base_div) -> None:
        """Pass 2 for one candidate nonfaulty set: the cyclic SCCs of the
        target-preserving subgraph of the expanded states."""
        system = self._system
        # state -> {child: the largest nonfaulty set, over the actions
        # from state to child, that contains the target}
        sub: dict[GlobalState, dict[GlobalState, frozenset]] = {}
        for state, pairs in graph.succ.items():
            if target & failed_of[state]:
                continue
            kept: dict[GlobalState, frozenset] = {}
            for action, child in pairs:
                failed = failed_of.get(child)
                if failed is None or target & failed:
                    continue
                nonfaulty = system.nonfaulty_under(action)
                if target <= nonfaulty and len(nonfaulty) > len(
                    kept.get(child, ())
                ):
                    kept[child] = nonfaulty
            if kept:
                sub[state] = kept
        for component in sccs(sub, sub):
            first = component[0]
            if len(component) == 1 and first not in sub[first]:
                continue
            members = set(component)
            # The loop's exact nonfaulty set intersects over the best
            # available action per internal edge.
            loop_nonfaulty = set(target)
            for state in component:
                for child, best in sub[state].items():
                    if child in members:
                        loop_nonfaulty &= best
                loop_nonfaulty -= failed_of[state]
            decisions = system.decisions(first)
            if any(i not in decisions for i in loop_nonfaulty):
                base_div.update(component)
            else:
                simplex = Simplex(
                    (i, decisions[i]) for i in sorted(loop_nonfaulty)
                )
                for state in component:
                    base_out.setdefault(state, set()).add(simplex)

    def _propagate(self, root, graph, base_out, base_div) -> None:
        """Pass 3: fold bases backwards over the full-graph condensation."""
        memo = self._memo
        children = {
            state: tuple(
                dict.fromkeys(child for _, child in graph.succ.get(state, ()))
            )
            for state in graph.depth
            if state not in memo
        }
        for component in sccs((root,), children):
            members = set(component)
            outcomes: set = set()
            diverges = False
            for state in component:
                outcomes |= base_out.get(state, set())
                diverges = diverges or state in base_div
                for child in children[state]:
                    if child in members:
                        continue
                    child_result = memo[child]
                    outcomes |= child_result.outcomes
                    diverges = diverges or child_result.diverges
            result = OutcomeResult(frozenset(outcomes), diverges)
            for state in component:
                memo[state] = result


# -- covering enumeration and always-valence-connectivity --------------------


def bipartition_coverings(outcomes: Sequence[Simplex]) -> Iterator[Covering]:
    """All bipartitions of the outcome set, as coverings.

    Checking these suffices for *always* valence connectivity (see module
    docstring).  ``2^(d-1) - 1`` coverings for ``d`` outcomes.
    """
    outcomes = sorted(set(outcomes), key=repr)
    d = len(outcomes)
    if d < 2:
        return
    for mask in range(1, 1 << (d - 1)):
        side0 = [outcomes[b] for b in range(d) if mask >> b & 1]
        side1 = [outcomes[b] for b in range(d) if not mask >> b & 1]
        yield Covering(Complex(side0), Complex(side1))


def valence_graph_for_covering(
    states: Sequence[GlobalState],
    analyzer: OutcomeAnalyzer,
    covering: Covering,
) -> Graph:
    """The generalized valence graph ``(X, ~v)`` w.r.t. one covering."""
    states = list(dict.fromkeys(states))
    graph = Graph(vertices=states)
    results = [analyzer.outcome(s) for s in states]
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            shared = any(
                results[a].valent_for(covering, v)
                and results[b].valent_for(covering, v)
                for v in (0, 1)
            )
            if shared:
                graph.add_edge(states[a], states[b])
    return graph


def always_valence_connected(
    states: Sequence[GlobalState],
    analyzer: OutcomeAnalyzer,
    max_bipartition_outcomes: int = 16,
) -> bool:
    """Whether ``X`` is valence connected w.r.t. *every* covering of the
    runs through ``X`` (Section 7's *always valence connected*).

    Two-tier check.  Tier 1 (cheap, sufficient): if two states share a
    concrete outcome ``d``, then under *every* covering ``d`` lies on some
    side, so the pair shares a valence — if the shared-outcome graph is
    already connected, the property holds outright.  Tier 2 (exact,
    exponential): enumerate the bipartition coverings of the outcome set;
    refuses (rather than silently sampling) beyond
    ``max_bipartition_outcomes`` distinct outcomes.
    """
    states = list(dict.fromkeys(states))
    results = [analyzer.outcome(s) for s in states]
    shared_graph = Graph(vertices=range(len(states)))
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            if results[a].outcomes & results[b].outcomes:
                shared_graph.add_edge(a, b)
    if is_connected(shared_graph):
        return True
    all_outcomes: set[Simplex] = set()
    for r in results:
        all_outcomes |= r.outcomes
    if len(all_outcomes) > max_bipartition_outcomes:
        raise RuntimeError(
            f"{len(all_outcomes)} distinct outcomes: exact covering "
            "enumeration would be astronomical and the shared-outcome "
            "graph is not connected; raise max_bipartition_outcomes to force"
        )
    for covering in bipartition_coverings(sorted(all_outcomes, key=repr)):
        if not is_connected(
            valence_graph_for_covering(states, analyzer, covering)
        ):
            return False
    return True
