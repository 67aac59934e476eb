"""Reachability exploration and state-space statistics.

Support machinery for the experiment drivers and benchmarks: breadth-first
enumeration of the states reachable under a successor system, per-depth
frontier sizes, and layer-size statistics.  These are the numbers the
ablation experiments (E9) report — how big the submodels defined by each
layering actually are, and how much sharing the canonical hashable state
representation buys.

Both explorers charge a cooperative :class:`~repro.resilience.Budget`
(states, edges, wall clock, best-effort memory); the legacy
``max_states: int`` parameter is kept as a deprecated alias that builds a
states-only budget via :meth:`Budget.of`.  :func:`explore` degrades
gracefully by default: on exhaustion it returns the partial statistics
with ``complete=False`` and the tripped limit recorded (pass
``strict=True`` to restore the raising behaviour).
:func:`reachable_states` returns a bare ``{state: depth}`` mapping, which
cannot express partiality, so it stays strict by default.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.cache import CacheSpec, CacheStats, CachedSystem, resolve_cache
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.resilience.chaos import crashpoint
from repro.resilience.pool import (
    PoolConfig,
    exception_category,
    run_units,
    with_workers,
)
from repro.resilience.wire import pack_depths, pack_states


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


class _ExploreContext:
    """Shared worker-side inputs of a parallel reachability run.

    Shipped to each worker **once** (via ``run_units(..., context=...)``)
    instead of once per shard, so per-process memos keyed on the system
    object — the contract-preflight probe, the successor cache — hit
    across every shard a worker runs.  This object, not the shard
    payloads, carries the heavyweight system; shard payloads stay
    O(shard descriptor): a :class:`~repro.resilience.wire.StatePack` of
    root configs plus a per-shard budget.
    """

    def __init__(self, system, max_depth, strict, cache, preflight, probe):
        self.system = system
        self.max_depth = max_depth
        self.strict = strict
        self.cache = cache
        self.preflight = preflight
        self.probe = probe  # StatePack sample of roots for warmup
        self._resolved = None

    def resolved(self):
        """The cache-resolved system, one instance per process."""
        if self._resolved is None:
            self._resolved = resolve_cache(self.system, self.cache)
        return self._resolved

    def intern(self, state: GlobalState) -> GlobalState:
        """Canonicalize an unpacked state into the process-local cache."""
        resolved = self.resolved()
        if isinstance(resolved, CachedSystem):
            return resolved.intern(state)
        return state

    def warmup(self) -> None:
        """Run the memoized preflight probe during pool cold-start.

        Best-effort by contract (the pool swallows warmup errors): an
        ill-formed system is never memoized as clean, so the first real
        shard re-probes and raises properly inside the fault-isolated
        attempt where quarantine owns the failure.
        """
        _preflight_or_raise(
            self.resolved(), self.probe.unpack(self.intern), self.preflight
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_resolved"] = None  # caches never cross processes
        return state


def _reachable_shard(payload, context: _ExploreContext):
    """Pool unit: BFS one shard of the root frontier (worker process).

    The contract preflight runs here, inside the fault-isolated worker,
    never in the driver: the probe calls the user's successor function,
    so a crashing system must crash a *worker* (retried, then
    quarantined) rather than the whole parallel exploration.  The shard's
    roots arrive packed and are rematerialized through the context's
    ``intern`` so the BFS runs over canonical states; the discovered
    region returns packed the same way.
    """
    pack, budget = payload
    roots = pack.unpack(context.intern)
    mapping = reachable_states(
        context.resolved(), roots, max_depth=context.max_depth,
        max_states=budget, strict=context.strict,
        preflight=context.preflight,
    )
    return pack_depths(mapping)


def reachable_states_parallel(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    strict: bool = True,
    workers: int = 2,
    pool: Optional[PoolConfig] = None,
    cache: CacheSpec = None,
    preflight: bool = True,
    shard_states: Optional[int] = None,
) -> dict[GlobalState, int]:
    """Frontier-sharded :func:`reachable_states` over a worker pool.

    The root frontier is split into fine-grained shards of
    ``shard_states`` roots each (default: enough shards for ~4 per
    worker, so stealing has slack to balance uneven shard costs); each
    shard BFSes independently in a worker process, and the per-shard
    ``{state: depth}`` maps merge by **minimum depth** in shard order —
    multi-root BFS depth is the minimum distance from any root, so the
    merged map is *identical* to the sequential result (states reachable
    from several shards are explored redundantly; the merge removes the
    duplicates).  The budget is :meth:`~repro.resilience.Budget.split`
    exactly across shards so the shards together charge at most the
    configured limits; a shard whose budget trips raises (strict) or
    truncates (non-strict) exactly like the sequential engine, and a
    shard whose worker crashes twice raises ``RuntimeError`` naming the
    quarantined shard.

    Plumbing costs are O(shard descriptor), not O(state space): the
    system ships once per worker as shared context, shard roots travel
    as packed intern-table configs, and results return the same way
    (see :mod:`repro.resilience.wire`).
    """
    root_list = list(dict.fromkeys(roots))
    if workers <= 1 or len(root_list) < 2:
        return reachable_states(
            system, root_list, max_depth=max_depth,
            max_states=max_states, strict=strict, cache=cache,
            preflight=preflight,
        )
    budget = Budget.of(max_states)
    if shard_states is not None and shard_states < 1:
        raise ValueError("shard_states must be >= 1")
    size = shard_states or max(
        1, -(-len(root_list) // (workers * 4))  # ceil division
    )
    shards = [
        root_list[start:start + size]
        for start in range(0, len(root_list), size)
    ]
    budgets = budget.split(len(shards))
    units = [
        (index, (pack_states(shard), budgets[index]))
        for index, shard in enumerate(shards)
    ]
    context = _ExploreContext(
        system, max_depth, strict, cache, preflight,
        probe=pack_states(root_list[: min(4, len(root_list))]),
    )
    report = run_units(
        _reachable_shard, units, with_workers(pool, workers), context=context
    )
    merged: dict[GlobalState, int] = {}
    for index in range(len(shards)):
        outcome = report.outcomes[index]
        if outcome.quarantined:
            from repro.lint.contracts import IllFormedSystemError

            cause = outcome.cause()
            # Dispatch on the structured exception category the pool
            # recorded, not on the cause text: messages and reprs may
            # change, the category is stable.
            category = outcome.error_category()
            if (
                category == exception_category(ExplorationLimitExceeded)
                and strict
            ):
                raise ExplorationLimitExceeded(
                    f"exploration shard {index} exhausted its budget: "
                    f"{cause}",
                    shard=index,
                )
            if category == exception_category(IllFormedSystemError):
                # The worker's preflight refused the system; re-raise
                # with the sequential engine's exception type so callers
                # handle ill-formedness uniformly (the report itself
                # cannot cross the process boundary, only its text).
                raise IllFormedSystemError(
                    f"exploration shard {index} refused: {cause}"
                )
            raise RuntimeError(
                f"exploration shard {index} quarantined: {cause}"
            )
        for state, depth in outcome.value.unpack().items():
            known = merged.get(state)
            if known is None or depth < known:
                merged[state] = depth
    return merged


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
    the result as a lower bound on reachability.  For a worker-pool
    variant sharded over the root frontier see
    :func:`reachable_states_parallel`.  ``cache`` memoizes the successor
    function (see :func:`repro.core.cache.resolve_cache`) — the mapping
    is identical either way.  ``preflight`` (default on) refuses an
    ill-formed system with :class:`~repro.lint.IllFormedSystemError`
    before exploring; ``preflight=False`` reproduces historical
    behaviour exactly.
    """
    root_seq = list(roots)
    _preflight_or_raise(system, root_seq, preflight)
    roots = root_seq
    system = resolve_cache(system, cache)
    meter = Budget.of(max_states).meter()
    depth: dict[GlobalState, int] = {}
    queue: deque[GlobalState] = deque()
    for root in roots:
        if root not in depth:
            depth[root] = 0
            tripped = meter.charge_state(root)
            if tripped is not None:
                # The root frontier alone can exhaust the state budget;
                # honor the trip instead of silently blowing past it.
                if strict:
                    raise ExplorationLimitExceeded(
                        f"exploration budget exhausted ({tripped}) while "
                        f"seeding {meter.states} root states"
                    )
                return depth
            queue.append(root)
    while queue:
        state = queue.popleft()
        if max_depth is not None and depth[state] >= max_depth:
            continue
        for _, child in system.successors(state):
            tripped = meter.charge_edge()
            if tripped is not None:
                # Honor the trip at the charge site — the every-256-ops
                # slow check would let a high-degree expansion overshoot
                # the edge budget by a whole layer.
                if strict:
                    raise ExplorationLimitExceeded(
                        f"exploration budget exhausted ({tripped}) after "
                        f"{meter.edges} generated edges"
                    )
                return depth
            if child not in depth:
                depth[child] = depth[state] + 1
                tripped = meter.charge_state(child)
                if tripped is not None:
                    if strict:
                        raise ExplorationLimitExceeded(
                            f"exploration budget exhausted ({tripped}) "
                            f"after {meter.states} reachable states"
                        )
                    return depth
                queue.append(child)
    return depth


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
    root_seq = list(roots)
    _preflight_or_raise(system, root_seq, preflight)
    roots = root_seq
    system = resolve_cache(system, cache)
    meter = Budget.of(max_states).meter()
    stats = ExplorationStats()
    depth: dict[GlobalState, int] = {}
    queue: deque[GlobalState] = deque()
    tripped: Optional[str] = None
    for root in roots:
        if root not in depth:
            depth[root] = 0
            tripped = meter.charge_state(root)
            if tripped is not None:
                # Honor a budget tripped by the root frontier itself.
                break
            queue.append(root)
    per_depth: dict[int, int] = {0: len(depth)}
    layer_sizes: list[int] = []
    while queue and tripped is None:
        state = queue.popleft()
        if max_depth is not None and depth[state] >= max_depth:
            continue
        pairs = system.successors(state)
        # The layer size is the number of *distinct* successor states,
        # but edges count every generated (action, child) pair — the
        # same accounting reachable_states charges its budget with.
        layer_sizes.append(len({child for _, child in pairs}))
        for _, child in pairs:
            stats.edges += 1
            tripped = meter.charge_edge()
            if tripped is not None:
                break
            if child in depth:
                stats.duplicate_hits += 1
                continue
            depth[child] = depth[state] + 1
            per_depth[depth[child]] = per_depth.get(depth[child], 0) + 1
            tripped = meter.charge_state(child)
            if tripped is not None:
                break
            queue.append(child)
    if tripped is not None:
        crashpoint("exploration.budget.trip")
    if tripped is not None and strict:
        raise ExplorationLimitExceeded(
            f"exploration budget exhausted ({tripped}) after "
            f"{len(depth)} reachable states"
        )
    stats.states = len(depth)
    stats.depth_reached = max(per_depth) if per_depth else 0
    stats.frontier_sizes = [per_depth[d] for d in sorted(per_depth)]
    if layer_sizes:
        stats.min_layer_size = min(layer_sizes)
        stats.max_layer_size = max(layer_sizes)
    stats.complete = tripped is None
    stats.limit = tripped
    stats.seconds = meter.elapsed()
    if isinstance(system, CachedSystem):
        stats.cache_stats = system.stats()
    return stats
