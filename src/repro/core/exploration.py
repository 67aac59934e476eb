"""Reachability exploration and state-space statistics.

Support machinery for the experiment drivers and benchmarks: breadth-first
enumeration of the states reachable under a successor system, per-depth
frontier sizes, and layer-size statistics.  These are the numbers the
ablation experiments (E9) report — how big the submodels defined by each
layering actually are, and how much sharing the canonical hashable state
representation buys.

One budgeted BFS (:func:`_walk`) does the walking; :func:`reachable_states`
and :func:`explore` are two views of it.  The walk charges a cooperative
:class:`~repro.resilience.Budget` (states, edges, wall clock, best-effort
memory); the legacy ``max_states: int`` parameter is kept as a deprecated
alias that builds a states-only budget via :meth:`Budget.of`.
:func:`explore` degrades gracefully by default: on exhaustion it returns
the partial statistics with ``complete=False`` and the tripped limit
recorded (pass ``strict=True`` to restore the raising behaviour).
:func:`reachable_states` returns a bare ``{state: depth}`` mapping, which
cannot express partiality, so it stays strict by default.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.cache import CacheSpec, CacheStats, CachedSystem, resolve_cache
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget, BudgetMeter, DEFAULT_MAX_STATES
from repro.resilience.chaos import crashpoint


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

    @property
    def states_per_second(self) -> float:
        """Exploration throughput (0.0 when no time was measured)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.states / self.seconds


def _preflight_or_raise(system, roots, enabled: bool) -> None:
    """Run the memoized contract preflight; raise on an ill-formed system.

    The explorers return bare state sets with no verdict channel, so
    (unlike the checkers' ``ILL_FORMED`` reports) a failed preflight
    surfaces as :class:`~repro.lint.IllFormedSystemError` carrying the
    findings and witness edges.
    """
    if not enabled:
        return
    from repro.lint.contracts import preflight_once

    report = preflight_once(system, roots)
    if report is not None:
        report.raise_if_ill_formed()


#: Where a walk's budget tripped: seeding the roots, charging a
#: generated edge, or charging a newly discovered state.
_SEEDING, _EDGE, _STATE = "seeding", "edge", "state"


@dataclass
class _Walk:
    """What one budgeted BFS saw; both explorers read their result off it.

    ``depth`` holds every discovered state, including the one whose
    charge tripped the budget.  ``tripped`` names the tripped limit and
    ``site`` the charge that tripped it (None for a complete walk).
    ``layer_sizes`` has one entry per expanded state: its number of
    distinct successor states.
    """

    system: object
    meter: BudgetMeter
    depth: dict[GlobalState, int] = field(default_factory=dict)
    tripped: Optional[str] = None
    site: Optional[str] = None
    duplicate_hits: int = 0
    layer_sizes: list[int] = field(default_factory=list)

    def stop(self, tripped: str, site: str) -> "_Walk":
        self.tripped, self.site = tripped, site
        return self


def _walk(system, roots, max_depth, max_states, cache, preflight) -> _Walk:
    """BFS from *roots*, charging the budget; stop at the first trip.

    Every generated ``(action, child)`` pair is charged as an edge and
    every newly discovered state as a state.  A trip is honoured at its
    charge site — the every-256-ops slow check would let a high-degree
    expansion overshoot the edge budget by a whole layer, and the root
    frontier alone can exhaust the state budget.
    """
    roots = list(roots)
    _preflight_or_raise(system, roots, preflight)
    system = resolve_cache(system, cache)
    walk = _Walk(system, Budget.of(max_states).meter())
    depth, meter = walk.depth, walk.meter
    queue: deque[GlobalState] = deque()
    for root in roots:
        if root not in depth:
            depth[root] = 0
            tripped = meter.charge_state(root)
            if tripped is not None:
                return walk.stop(tripped, _SEEDING)
            queue.append(root)
    while queue:
        state = queue.popleft()
        level = depth[state] + 1
        if max_depth is not None and level > max_depth:
            continue
        pairs = system.successors(state)
        # The layer size is the number of *distinct* successor states,
        # but every generated (action, child) pair is charged an edge.
        walk.layer_sizes.append(len({child for _, child in pairs}))
        for _, child in pairs:
            tripped = meter.charge_edge()
            if tripped is not None:
                return walk.stop(tripped, _EDGE)
            if child in depth:
                walk.duplicate_hits += 1
                continue
            depth[child] = level
            tripped = meter.charge_state(child)
            if tripped is not None:
                return walk.stop(tripped, _STATE)
            queue.append(child)
    return walk


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
    an ill-formed system with :class:`~repro.lint.IllFormedSystemError`
    before exploring; ``preflight=False`` reproduces historical
    behaviour exactly.
    """
    walk = _walk(system, roots, max_depth, max_states, cache, preflight)
    if walk.tripped is not None and strict:
        meter = walk.meter
        where = {
            _SEEDING: f"while seeding {meter.states} root states",
            _EDGE: f"after {meter.edges} generated edges",
            _STATE: f"after {meter.states} reachable states",
        }[walk.site]
        raise ExplorationLimitExceeded(
            f"exploration budget exhausted ({walk.tripped}) {where}"
        )
    return walk.depth


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
    :class:`~repro.lint.IllFormedSystemError` before exploring.
    """
    walk = _walk(system, roots, max_depth, max_states, cache, preflight)
    if walk.tripped is not None:
        crashpoint("exploration.budget.trip")
        if strict:
            raise ExplorationLimitExceeded(
                f"exploration budget exhausted ({walk.tripped}) after "
                f"{len(walk.depth)} reachable states"
            )
    # BFS depths are contiguous from 0, so one count per level covers
    # every depth up to the deepest (an empty root set reads [0]).
    per_depth = Counter(walk.depth.values())
    deepest = max(per_depth, default=0)
    stats = ExplorationStats(
        states=len(walk.depth),
        edges=walk.meter.edges,
        depth_reached=deepest,
        frontier_sizes=[per_depth[d] for d in range(deepest + 1)],
        duplicate_hits=walk.duplicate_hits,
        min_layer_size=min(walk.layer_sizes, default=0),
        max_layer_size=max(walk.layer_sizes, default=0),
        complete=walk.tripped is None,
        limit=walk.tripped,
        seconds=walk.meter.elapsed(),
    )
    if isinstance(walk.system, CachedSystem):
        stats.cache_stats = walk.system.stats()
    return stats
