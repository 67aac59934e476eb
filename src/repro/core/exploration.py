"""Reachability exploration and state-space statistics.

Support machinery for the experiment drivers and benchmarks: breadth-first
enumeration of the states reachable under a successor system, per-depth
frontier sizes, and layer-size statistics.  These are the numbers the
ablation experiments (E9) report — how big the submodels defined by each
layering actually are, and how much sharing the canonical hashable state
representation buys.

The shared budgeted BFS (:func:`repro.core.graph.walk`) does the walking,
bounded by ``max_depth``; :func:`reachable_states` and :func:`explore` are
two views of it.  The walk charges a cooperative
:class:`~repro.resilience.budget.Budget` (states, edges, wall clock, best-effort
memory); the legacy ``max_states: int`` parameter is kept as a deprecated
alias that builds a states-only budget via :meth:`Budget.of`.
:func:`explore` degrades gracefully by default: on exhaustion it returns
the partial statistics with ``complete=False`` and the tripped limit
recorded (pass ``strict=True`` to restore the raising behaviour).
:func:`reachable_states` returns a bare ``{state: depth}`` mapping, which
cannot express partiality, so it stays strict by default.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.cache import CacheSpec, CacheStats, CachedSystem, resolve_cache
from repro.core.graph import walk
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.resilience.crashpoint import crashpoint


@dataclass
class ExplorationStats:
    """Statistics from a bounded reachability exploration."""

    states: int = 0
    edges: int = 0
    depth_reached: int = 0
    frontier_sizes: list[int] = field(default_factory=list)
    duplicate_hits: int = 0
    min_layer_size: int = 0
    max_layer_size: int = 0
    complete: bool = True
    limit: Optional[str] = None
    seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None

    @property
    def sharing_ratio(self) -> float:
        """Fraction of generated successors that were already known —
        how much the DAG structure collapses the naive schedule tree.

        ``edges`` counts every generated ``(action, child)`` pair —
        matching what :func:`reachable_states` charges its budget — so
        two layer actions leading to the same child count as two
        generated successors, one of which is a duplicate hit.
        """
        if self.edges == 0:
            return 0.0
        return self.duplicate_hits / self.edges


def _preflight_or_raise(system, roots, enabled: bool) -> None:
    """Run the memoized contract preflight; raise on an ill-formed system.

    The explorers return bare state sets with no verdict channel, so
    (unlike the checkers' ``ILL_FORMED`` reports) a failed preflight
    surfaces as :class:`~repro.core.contracts.IllFormedSystemError` carrying the
    findings and witness edges.
    """
    if not enabled:
        return
    from repro.core.contracts import preflight_once

    report = preflight_once(system, roots)
    if report is not None:
        report.raise_if_ill_formed()


def _walk_from(system, roots, max_depth, max_states, cache, preflight):
    """Preflight, then the budgeted BFS both explorers read.

    Returns ``(system, meter, graph)``: the system with the cache
    applied, the meter the walk charged and the
    :class:`~repro.core.graph.Walk`.
    """
    roots = list(roots)
    _preflight_or_raise(system, roots, preflight)
    system = resolve_cache(system, cache)
    meter = Budget.of(max_states).meter()
    return system, meter, walk(system, roots, meter, max_depth=max_depth)


def reachable_states(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    strict: bool = True,
    cache: CacheSpec = None,
    preflight: bool = True,
) -> dict[GlobalState, int]:
    """BFS the reachable set; returns ``{state: first-reached depth}``.

    With ``strict=False`` a budget exhaustion returns the partial mapping
    discovered so far instead of raising — callers who opt in must treat
    the result as a lower bound on reachability.  ``cache`` memoizes the
    successor function (see :func:`repro.core.cache.resolve_cache`) — the
    mapping is identical either way.  ``preflight`` (default on) refuses
    an ill-formed system with :class:`~repro.core.contracts.IllFormedSystemError`
    before exploring; ``preflight=False`` reproduces historical
    behaviour exactly.
    """
    _, meter, graph = _walk_from(
        system, roots, max_depth, max_states, cache, preflight
    )
    if graph.tripped is not None and strict:
        where = (
            f"after {len(graph.depth)} reachable states and "
            f"{meter.edges} generated edges"
            if graph.succ
            else f"while seeding {meter.states} root states"
        )
        raise ExplorationLimitExceeded(
            f"exploration budget exhausted ({graph.tripped}) {where}"
        )
    return graph.depth


def explore(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    strict: bool = False,
    cache: CacheSpec = None,
    preflight: bool = True,
) -> ExplorationStats:
    """BFS with full statistics (see :class:`ExplorationStats`).

    Budget exhaustion returns the partial statistics with
    ``complete=False`` and the tripped limit named; ``strict=True``
    raises :class:`ExplorationLimitExceeded` instead.  ``cache``
    memoizes the successor function (see
    :func:`repro.core.cache.resolve_cache`); when enabled, the cache's
    counters are snapshotted into ``stats.cache_stats``.  All other
    statistics are identical cached or uncached.  ``preflight`` (default
    on) refuses an ill-formed system with
    :class:`~repro.core.contracts.IllFormedSystemError` before exploring.
    """
    system, meter, graph = _walk_from(
        system, roots, max_depth, max_states, cache, preflight
    )
    if graph.tripped is not None:
        crashpoint("exploration.budget.trip")
        if strict:
            raise ExplorationLimitExceeded(
                f"exploration budget exhausted ({graph.tripped}) after "
                f"{len(graph.depth)} reachable states"
            )
    # BFS depths are contiguous from 0, so one count per level covers
    # every depth up to the deepest (an empty root set reads [0]).
    per_depth = Counter(graph.depth.values())
    deepest = max(per_depth, default=0)
    # A layer's size is its number of *distinct* successor states, but
    # every generated (action, child) pair was charged an edge.
    layer_sizes = [
        len({child for _, child in pairs}) for pairs in graph.succ.values()
    ]
    stats = ExplorationStats(
        states=len(graph.depth),
        edges=meter.edges,
        depth_reached=deepest,
        frontier_sizes=[per_depth[d] for d in range(deepest + 1)],
        duplicate_hits=graph.duplicate_hits,
        min_layer_size=min(layer_sizes, default=0),
        max_layer_size=max(layer_sizes, default=0),
        complete=graph.tripped is None,
        limit=graph.tripped,
        seconds=meter.elapsed(),
    )
    if isinstance(system, CachedSystem):
        stats.cache_stats = system.stats()
    return stats
