"""The similarity relation ``~s`` (Definition 3.1).

Two states are *similar* when (i) they agree modulo some process ``j``
and (ii) some process ``i != j`` is non-failed in both.  Similarity is the
classical indistinguishability tool: by the crash-display property, a pair
of similar states extends to runs that remain indistinguishable to the
nonfaulty processes once ``j`` is crashed in both — which is what turns
similarity into *shared valence* (Lemma 3.3).

Environment agreement is delegated to the model's
``envs_agree_modulo(env_x, env_y, j)`` hook (default: exact equality).
Two models refine it — the synchronous model (failure bookkeeping about
``j`` itself is discounted) and the asynchronous message-passing model
(in-transit messages addressed to ``j`` are accounted to ``j``); in both
cases the refinement is precisely the environment information that can
never reach any process other than ``j`` once ``j`` is crashed, so the
crash-display argument is unaffected.  See DESIGN.md ("similarity
refinements").
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.state import GlobalState, differing_processes
from repro.util.graphs import Graph, is_connected


def _model_of(system):
    """The underlying model of a system (layerings expose ``.model``)."""
    return getattr(system, "model", system)


def similarity_witnesses(
    x: GlobalState, y: GlobalState, system
) -> frozenset[int]:
    """All processes ``j`` witnessing ``x ~s y`` (empty = not similar)."""
    if x.n != y.n:
        return frozenset()
    model = _model_of(system)
    diffs = differing_processes(x, y)
    if len(diffs) > 1:
        return frozenset()
    failed_both = system.failed_at(x) | system.failed_at(y)
    candidates = diffs if diffs else frozenset(range(x.n))
    witnesses = set()
    for j in candidates:
        if not model.envs_agree_modulo(x.env, y.env, j):
            continue
        if any(i != j and i not in failed_both for i in range(x.n)):
            witnesses.add(j)
    return frozenset(witnesses)


def similar(x: GlobalState, y: GlobalState, system) -> bool:
    """Definition 3.1's ``x ~s y``."""
    return bool(similarity_witnesses(x, y, system))


def similarity_graph(states: Iterable[GlobalState], system) -> Graph:
    """The graph ``(X, ~s)`` over an explicit set of states."""
    states = list(dict.fromkeys(states))
    graph = Graph(vertices=states)
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            if similar(states[a], states[b], system):
                graph.add_edge(states[a], states[b])
    return graph


def is_similarity_connected(states: Iterable[GlobalState], system) -> bool:
    """Whether ``(X, ~s)`` is connected."""
    return is_connected(similarity_graph(states, system))


def s_diameter(states: Iterable[GlobalState], system) -> int:
    """The s-diameter of a set of states (Section 7, before Lemma 7.6):
    the diameter of the graph induced by ``~s``.

    Raises ``ValueError`` when the set is not similarity connected.
    """
    from repro.util.graphs import diameter

    return diameter(similarity_graph(states, system))
