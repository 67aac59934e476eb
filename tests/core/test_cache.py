"""Unit tests for the memoizing, state-interning successor-system cache."""

import gc
import pickle

import pytest

from repro.core.cache import (
    _RETIRED,
    CachedSystem,
    CacheStats,
    aggregate_stats,
    merge_cache_stats,
    resolve_cache,
)
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.state import GlobalState
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.floodset import FloodSet
from tests.conftest import ToySystem


class CountingSystem:
    """A ToySystem proxy that counts calls into the wrapped system."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = {"successors": 0, "failed_at": 0, "decisions": 0}

    def successors(self, state):
        self.calls["successors"] += 1
        return self._inner.successors(state)

    def failed_at(self, state):
        self.calls["failed_at"] += 1
        return self._inner.failed_at(state)

    def decisions(self, state):
        self.calls["decisions"] += 1
        return self._inner.decisions(state)

    def nonfaulty_under(self, action):
        return self._inner.nonfaulty_under(action)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def toy():
    return ToySystem(
        edges={
            "x": [("l", "a"), ("r", "b")],
            "a": [("d", "da")],
            "b": [("d", "db")],
            "da": [("s", "da")],
            "db": [("s", "db")],
        },
        decisions={"da": {0: 0, 1: 0}, "db": {0: 1, 1: 1}},
    )


class TestMemoization:
    def test_second_lookup_skips_the_system(self, toy):
        counting = CountingSystem(toy)
        cached = CachedSystem(counting)
        state = toy.state("x")
        first = cached.successors(state)
        second = cached.successors(state)
        assert counting.calls["successors"] == 1
        assert first is second  # the memo entry itself is returned

    def test_results_match_the_wrapped_system(self, toy):
        cached = CachedSystem(toy)
        for name in ("x", "a", "b", "da", "db"):
            state = toy.state(name)
            assert cached.successors(state) == toy.successors(state)
            assert cached.failed_at(state) == toy.failed_at(state)
            assert cached.decisions(state) == toy.decisions(state)

    def test_empty_successor_list_is_cached(self):
        # Falsy entries must still count as cache hits (_MISS sentinel).
        inner = ToySystem(edges={})
        counting = CountingSystem(inner)
        cached = CachedSystem(counting)
        state = inner.state("lonely")
        assert cached.successors(state) == []
        assert cached.successors(state) == []
        assert counting.calls["successors"] == 1
        assert cached.stats().hits == 1

    def test_all_three_tables_are_independent(self, toy):
        counting = CountingSystem(toy)
        cached = CachedSystem(counting)
        state = toy.state("da")
        for _ in range(2):
            cached.successors(state)
            cached.failed_at(state)
            cached.decisions(state)
        assert counting.calls == {
            "successors": 1,
            "failed_at": 1,
            "decisions": 1,
        }
        stats = cached.stats()
        assert stats.hits == 3 and stats.misses == 3

    def test_nonfaulty_under_memoized(self, toy):
        cached = CachedSystem(toy)
        assert cached.nonfaulty_under("l") == cached.nonfaulty_under("l")
        assert cached.stats().hits >= 1


class TestInterning:
    def test_equal_states_consolidate_to_one_object(self, toy):
        cached = CachedSystem(toy)
        one = GlobalState("toy", ("x", "x"))
        two = GlobalState("toy", ("x", "x"))
        assert one is not two
        assert cached.intern(one) is cached.intern(two)
        assert cached.stats().intern_hits == 1

    def test_successor_children_are_interned(self, toy):
        cached = CachedSystem(toy)
        # a and b both step to distinct GlobalState objects for "da"/"db"
        # on every ToySystem call; through the cache each distinct value
        # has exactly one canonical object.
        (_, da1), = cached.successors(toy.state("a"))
        da2 = cached.intern(GlobalState("toy", ("da", "da")))
        assert da1 is da2

    def test_interning_preserves_value(self, toy):
        cached = CachedSystem(toy)
        original = GlobalState("toy", ("a", "a"))
        canonical = cached.intern(GlobalState("toy", ("a", "a")))
        assert canonical == original
        assert hash(canonical) == hash(original)


class TestLRUEviction:
    def test_bound_is_enforced(self, toy):
        cached = CachedSystem(toy, max_entries=2)
        for name in ("x", "a", "b", "da", "db"):
            cached.successors(toy.state(name))
        assert len(cached._successors) <= 2
        assert cached.stats().evictions == 3

    def test_evicted_entries_recompute_correctly(self, toy):
        counting = CountingSystem(toy)
        cached = CachedSystem(counting, max_entries=1)
        x = toy.state("x")
        a = toy.state("a")
        first = list(cached.successors(x))
        cached.successors(a)  # evicts x
        again = list(cached.successors(x))  # recomputed, same value
        assert again == first
        assert counting.calls["successors"] == 3

    def test_recently_used_entries_survive(self, toy):
        counting = CountingSystem(toy)
        cached = CachedSystem(counting, max_entries=2)
        x, a, b = toy.state("x"), toy.state("a"), toy.state("b")
        cached.successors(x)
        cached.successors(a)
        cached.successors(x)  # refresh x: a is now least recent
        cached.successors(b)  # evicts a, not x
        cached.successors(x)
        assert counting.calls["successors"] == 3  # x never recomputed

    def test_invalid_bound_rejected(self, toy):
        with pytest.raises(ValueError):
            CachedSystem(toy, max_entries=0)


class TestResolveCache:
    def test_none_and_false_leave_the_system_alone(self, toy):
        assert resolve_cache(toy, None) is toy
        assert resolve_cache(toy, False) is toy

    def test_true_wraps_unbounded(self, toy):
        cached = resolve_cache(toy, True)
        assert isinstance(cached, CachedSystem)
        assert cached.max_entries is None
        assert cached.uncached is toy

    def test_int_wraps_with_bound(self, toy):
        cached = resolve_cache(toy, 128)
        assert cached.max_entries == 128

    def test_prebuilt_cache_is_shared(self, toy):
        shared = CachedSystem(toy)
        assert resolve_cache(toy, shared) is shared
        assert resolve_cache(shared, shared) is shared

    def test_shared_cache_for_wrong_system_rejected(self, toy):
        other = ToySystem(edges={"y": [("s", "y")]})
        shared = CachedSystem(other)
        with pytest.raises(ValueError):
            resolve_cache(toy, shared)

    def test_already_cached_system_not_rewrapped(self, toy):
        cached = CachedSystem(toy)
        assert resolve_cache(cached, True) is cached
        with pytest.raises(TypeError):
            CachedSystem(cached)


class TestTransparency:
    def test_unknown_attributes_pass_through(self, toy):
        cached = CachedSystem(toy)
        assert cached.n == toy.n
        assert cached.model is toy  # ToySystem is its own model
        with pytest.raises(AttributeError):
            cached._no_such_private_attribute

    def test_pickle_keeps_config_drops_contents(self, toy):
        cached = CachedSystem(toy, max_entries=7)
        cached.successors(toy.state("x"))
        assert cached.stats().misses == 1
        clone = pickle.loads(pickle.dumps(cached))
        assert isinstance(clone, CachedSystem)
        assert clone.max_entries == 7
        fresh = clone.stats()
        assert fresh.hits == 0 and fresh.misses == 0 and fresh.entries == 0
        # The clone still answers correctly (warming its own cache).
        assert clone.successors(toy.state("x")) == toy.successors(
            toy.state("x")
        )

    def test_clear_drops_entries_keeps_counters(self, toy):
        cached = CachedSystem(toy)
        cached.successors(toy.state("x"))
        cached.successors(toy.state("x"))
        cached.clear()
        stats = cached.stats()
        assert stats.entries == 0 and stats.interned == 0
        assert stats.hits == 1 and stats.misses == 1


class TestStats:
    def test_hit_ratio(self):
        stats = CacheStats(3, 1, 0, 0, 0, 0, 0)
        assert stats.hit_ratio == 0.75
        assert CacheStats(0, 0, 0, 0, 0, 0, 0).hit_ratio == 0.0

    def test_describe_mentions_the_essentials(self):
        text = CacheStats(10, 5, 4, 7, 2, 1, 2048).describe()
        assert "10 hits" in text and "5 misses" in text
        assert "7 interned" in text and "2048 bytes" in text
        assert "1 eviction" in text

    def test_merge_sums_componentwise(self):
        merged = merge_cache_stats(
            [CacheStats(1, 2, 3, 4, 5, 6, 7), CacheStats(10, 20, 30, 40, 50, 60, 70)]
        )
        assert merged == CacheStats(11, 22, 33, 44, 55, 66, 77)

    def test_aggregate_includes_live_and_retired_caches(self, toy):
        before = aggregate_stats()
        live = CachedSystem(toy)
        live.successors(toy.state("x"))
        live.successors(toy.state("x"))
        dead = CachedSystem(toy)
        dead.successors(toy.state("a"))
        del dead  # retirement preserves its counters
        after = aggregate_stats()
        assert after.hits - before.hits >= 1
        assert after.misses - before.misses >= 2

    def test_retired_snapshot_counts_distinct_states(self):
        # A cache re-interns the canonical objects it handed out (every
        # repeat visit of a state, every endpoint shared by duplicate
        # layer actions); only a real insertion adds a state.  The
        # counter once read 356 here against 84 distinct states.
        model = SynchronousModel(FloodSet(2), 3, 1)
        cached = CachedSystem(StSynchronousLayering(model))
        checker = ConsensusChecker(cached)
        assert checker.check_all(model).verdict is Verdict.SATISFIED
        live = cached.stats()
        assert live.interned == 84
        retired = len(_RETIRED)
        del checker, cached
        gc.collect()
        assert len(_RETIRED) == retired + 1
        assert _RETIRED[-1].interned == live.interned
        assert _RETIRED[-1].bytes_estimate == live.bytes_estimate

    def test_explore_snapshots_cache_stats(self, toy):
        from repro.core.exploration import explore

        stats = explore(toy, [toy.state("x")], cache=True)
        assert stats.cache_stats is not None
        assert stats.cache_stats.misses > 0
        uncached = explore(toy, [toy.state("x")])
        assert uncached.cache_stats is None
