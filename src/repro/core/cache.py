"""Memoized successor systems: the shared hot path of every analyzer.

Every engine in this library — the valence analyzer, the consensus
checker, the reachability explorers, the task/outcome checkers — consumes
the same three-method :class:`~repro.layerings.base.SuccessorSystem`
interface, and all of them spend their time in ``successors``: a layering
refolds the full layer expansion through the underlying model on every
call (for ``S^rw`` that is O(n²) layer actions × O(n²) primitive
applications per state), recomputed from scratch each time two engines —
or two phases of one engine — visit the same state.

:class:`CachedSystem` wraps any successor system and memoizes
``successors``, ``failed_at`` and ``decisions`` per state, either
unbounded (the default) or LRU-bounded (``max_entries``).  It also
*hash-conses* the states flowing through it: every state returned from a
cached ``successors`` call is interned to one canonical
:class:`~repro.core.state.GlobalState` object per distinct value, so the
dict lookups in the BFS/Tarjan inner loops hit CPython's pointer-equality
fast path instead of comparing tuples element by element.  A state
computes its hash on first use and keeps it (see ``GlobalState``), so the
canonical objects the engines keep reusing carry their hashes with them.

Invariants the wrapper guarantees (and relies on):

* **Transparency** — a ``CachedSystem`` is observationally identical to
  the system it wraps: same successor lists in the same order, same
  failure sets, same decision maps.  Cached and uncached runs of any
  engine therefore produce identical verdicts, witnesses and
  (budget-relevant) state/edge counts; ``tests/integration/
  test_cache_parity.py`` enforces this per layering family.
* **Interning is value-preserving** — the canonical object is ``==`` to
  (and hashes identically to) every object it replaces; only identity is
  consolidated.  Evicting an intern entry is therefore always safe: a
  later equal state simply becomes the new canonical object.
* **Returned objects are shared** — callers must treat the lists/dicts
  returned by a cached system as immutable (every engine in this library
  already does; none mutates a ``successors``/``decisions`` result).
* **Caches do not cross processes** — pickling a ``CachedSystem`` (e.g.
  into a :mod:`repro.resilience.pool` worker) carries the wrapped system
  and the configuration but *drops the cache contents*, so each parallel
  verification unit warms its own private cache and the deterministic
  merge of PR 2 is preserved exactly.

:func:`resolve_cache` is the one-line adapter engines and drivers use to
accept ``cache=`` as a bool, an LRU bound, or a prebuilt (shared)
``CachedSystem``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.state import GlobalState
from repro.resilience.budget import _state_bytes

#: How many interned states are sampled for the byte estimate.
MEMORY_SAMPLES = 32

#: Live caches in this process, for :func:`aggregate_stats` (the CLI's
#: end-of-run cache summary).  Weak references: registration must not
#: keep a finished verification unit's cache alive.
_REGISTRY: "weakref.WeakSet[CachedSystem]" = weakref.WeakSet()

#: Final snapshots of caches that have been garbage collected.  Drivers
#: build one cache per verification unit and drop it with the unit, so
#: without this the CLI's end-of-run summary would usually see an empty
#: registry; each cache retires its counters here via ``weakref.finalize``.
_RETIRED: "list[CacheStats]" = []


class _Counters:
    """Mutable cache counters, separable from their :class:`CachedSystem`.

    Held in a standalone object so a ``weakref.finalize`` callback can
    read the final values without referencing (and thereby immortalizing)
    the cache itself.
    """

    __slots__ = (
        "hits", "misses", "intern_hits", "evictions", "sampled",
        "sample_bytes", "interned",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.intern_hits = 0
        self.evictions = 0
        self.sampled = 0
        self.sample_bytes = 0
        self.interned = 0


def _snapshot(
    counters: _Counters, entries: int, interned: int
) -> CacheStats:
    if counters.sampled:
        per_state = counters.sample_bytes // counters.sampled
    else:
        per_state = 0
    return CacheStats(
        hits=counters.hits,
        misses=counters.misses,
        entries=entries,
        interned=interned,
        intern_hits=counters.intern_hits,
        evictions=counters.evictions,
        bytes_estimate=per_state * interned,
    )


def _retire(counters: _Counters) -> None:
    """Finalizer: preserve a dead cache's counters for aggregation.

    Only the counters survive — the memo/intern tables are gone with the
    cache, so a retired snapshot reports zero live entries (its *work*,
    hits and misses, is what the end-of-run summary needs).
    """
    if counters.hits or counters.misses:
        _RETIRED.append(
            _snapshot(counters, entries=0, interned=counters.interned)
        )


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of what a :class:`CachedSystem` did so far.

    Attributes:
        hits: memoized lookups served without touching the wrapped system
            (summed over the successors/failed_at/decisions tables).
        misses: lookups that fell through to the wrapped system.
        entries: memo entries currently held across the three tables.
        interned: distinct canonical states in the intern table.
        intern_hits: state lookups consolidated onto an existing
            canonical object (the raw measure of cross-engine sharing).
        evictions: memo entries dropped by the LRU bound (0 if unbounded).
        bytes_estimate: best-effort footprint of the interned states
            (sampled ``sys.getsizeof`` extrapolation, same estimator the
            budget meter uses).
    """

    hits: int
    misses: int
    entries: int
    interned: int
    intern_hits: int
    evictions: int
    bytes_estimate: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def describe(self) -> str:
        """One-line summary, e.g. for CLI diagnostics."""
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.hit_ratio:.0%}), {self.interned} interned states "
            f"(~{self.bytes_estimate} bytes)"
            + (f", {self.evictions} evictions" if self.evictions else "")
        )


def merge_cache_stats(parts: "list[CacheStats]") -> CacheStats:
    """Sum several cache snapshots into one aggregate."""
    return CacheStats(
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        entries=sum(p.entries for p in parts),
        interned=sum(p.interned for p in parts),
        intern_hits=sum(p.intern_hits for p in parts),
        evictions=sum(p.evictions for p in parts),
        bytes_estimate=sum(p.bytes_estimate for p in parts),
    )


def aggregate_stats() -> CacheStats:
    """Aggregate statistics over every cache this process created —
    live ones plus the retired counters of already-collected ones.

    Worker processes have their own registries; a parallel run's
    supervisor therefore only sees the caches it built locally.
    """
    parts = [cache.stats() for cache in _REGISTRY]
    parts.extend(_RETIRED)
    return merge_cache_stats(parts)


class CachedSystem:
    """A memoizing, state-interning wrapper around a successor system.

    Implements :class:`~repro.layerings.base.SuccessorSystem` (plus
    ``nonfaulty_under``) by delegation, so it can stand in for a layering
    or model anywhere in the library; unknown attributes (``layer_actions``,
    ``expand``, ``apply``, ``t``, ...) pass through to the wrapped system.

    Args:
        system: any successor system (layering or model).
        max_entries: memo-table bound *per table*.  ``None`` (default)
            memoizes every state ever seen; an ``int`` keeps at most that
            many entries per table, evicting least-recently-used ones.
            Eviction affects only speed, never results.
    """

    def __init__(self, system, max_entries: Optional[int] = None) -> None:
        if isinstance(system, CachedSystem):
            raise TypeError("refusing to cache an already-cached system")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self._system = system
        self._max_entries = max_entries
        self._successors: "OrderedDict[GlobalState, list]" = OrderedDict()
        self._failed: "OrderedDict[GlobalState, frozenset[int]]" = OrderedDict()
        self._decisions: "OrderedDict[GlobalState, dict]" = OrderedDict()
        self._nonfaulty: dict[Hashable, frozenset[int]] = {}
        self._interned: dict[GlobalState, GlobalState] = {}
        self._counters = _Counters()
        _REGISTRY.add(self)
        weakref.finalize(self, _retire, self._counters)

    # -- identity ----------------------------------------------------------
    @property
    def uncached(self):
        """The wrapped system (checkpoint fingerprints see through this)."""
        return self._system

    @property
    def max_entries(self) -> Optional[int]:
        return self._max_entries

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._system, name)

    # -- interning ---------------------------------------------------------
    def intern(self, state: GlobalState) -> GlobalState:
        """The canonical object for *state* (registering it if new)."""
        counters = self._counters
        canonical = self._interned.get(state)
        if canonical is None:
            # Only a real insertion counts: re-interning a canonical
            # object (a shared endpoint, say) adds no state.
            self._interned[state] = state
            counters.interned += 1
            if counters.sampled < MEMORY_SAMPLES:
                counters.sampled += 1
                counters.sample_bytes += _state_bytes(state)
            return state
        if canonical is not state:
            counters.intern_hits += 1
        return canonical

    # -- the memoized SuccessorSystem face ----------------------------------
    def successors(self, state: GlobalState) -> list:
        table = self._successors
        entry = table.get(state, _MISS)
        if entry is not _MISS:
            self._counters.hits += 1
            if self._max_entries is not None:
                table.move_to_end(state)
            return entry
        self._counters.misses += 1
        state = self.intern(state)
        entry = [
            (action, self.intern(child))
            for action, child in self._system.successors(state)
        ]
        self._store(table, state, entry)
        return entry

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        table = self._failed
        entry = table.get(state, _MISS)
        if entry is not _MISS:
            self._counters.hits += 1
            if self._max_entries is not None:
                table.move_to_end(state)
            return entry
        self._counters.misses += 1
        state = self.intern(state)
        entry = self._system.failed_at(state)
        self._store(table, state, entry)
        return entry

    def decisions(self, state: GlobalState) -> dict:
        table = self._decisions
        entry = table.get(state, _MISS)
        if entry is not _MISS:
            self._counters.hits += 1
            if self._max_entries is not None:
                table.move_to_end(state)
            return entry
        self._counters.misses += 1
        state = self.intern(state)
        entry = self._system.decisions(state)
        self._store(table, state, entry)
        return entry

    def nonfaulty_under(self, action: Hashable) -> frozenset[int]:
        entry = self._nonfaulty.get(action, _MISS)
        if entry is not _MISS:
            self._counters.hits += 1
            return entry
        self._counters.misses += 1
        entry = self._system.nonfaulty_under(action)
        self._nonfaulty[action] = entry
        return entry

    def _store(self, table: OrderedDict, state: GlobalState, entry) -> None:
        table[state] = entry
        if self._max_entries is not None and len(table) > self._max_entries:
            table.popitem(last=False)
            self._counters.evictions += 1

    # -- bookkeeping --------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot the cache counters into a :class:`CacheStats`."""
        return _snapshot(
            self._counters,
            entries=(
                len(self._successors)
                + len(self._failed)
                + len(self._decisions)
            ),
            interned=len(self._interned),
        )

    def clear(self) -> None:
        """Drop every memo entry and interned state (counters survive)."""
        self._successors.clear()
        self._failed.clear()
        self._decisions.clear()
        self._nonfaulty.clear()
        self._interned.clear()
        self._counters.interned = 0

    # -- pickling: configuration travels, contents do not --------------------
    def __getstate__(self) -> dict:
        return {"system": self._system, "max_entries": self._max_entries}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["system"], max_entries=state["max_entries"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = self._max_entries if self._max_entries is not None else "inf"
        return f"CachedSystem({self._system!r}, max_entries={bound})"


#: Internal sentinel distinguishing "not cached" from cached falsy values
#: (a terminal toy state legitimately caches an empty successor list).
_MISS = object()

#: The ``cache=`` parameter type accepted across engines and drivers.
CacheSpec = Union[None, bool, int, CachedSystem]


def resolve_cache(system, cache: CacheSpec):
    """Apply a ``cache=`` specification to a system.

    * ``None`` / ``False`` — return *system* unchanged (no caching);
    * ``True`` — wrap in an unbounded :class:`CachedSystem` (reusing
      *system* itself if it is already cached);
    * an ``int`` — wrap with that LRU bound per memo table;
    * a :class:`CachedSystem` — use it as the (caller-shared) cache; it
      must wrap this very system.
    """
    if cache is None or cache is False:
        return system
    if isinstance(cache, CachedSystem):
        if cache.uncached is not system and cache is not system:
            raise ValueError(
                "shared cache wraps a different system than the one "
                "being analyzed"
            )
        return cache
    if isinstance(system, CachedSystem):
        return system
    if cache is True:
        return CachedSystem(system)
    return CachedSystem(system, max_entries=int(cache))
