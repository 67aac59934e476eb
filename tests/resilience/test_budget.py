"""Unit tests for budgets, meters and graceful checker degradation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.checker import ConsensusChecker, Verdict
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import (
    Budget,
    BudgetStats,
    LIMIT_EDGES,
    LIMIT_INTERRUPTED,
    LIMIT_STATES,
    LIMIT_TIME,
    merge_stats,
)
from repro.tasks.catalog import binary_consensus
from repro.tasks.checker import TaskChecker
from repro.tasks.simplex import Simplex
from tests.conftest import ToySystem


class TestBudgetOf:
    def test_int_coerces(self):
        b = Budget.of(100)
        assert b.max_states == 100 and b.max_seconds is None

    def test_budget_passes_through(self):
        b = Budget(max_states=5, max_edges=7)
        assert Budget.of(b) is b

    def test_none_uses_default(self):
        assert Budget.of(None, default=42).max_states == 42
        assert Budget.of(None).max_states is None

    def test_unlimited(self):
        b = Budget.unlimited()
        assert b.describe() == "unlimited"
        meter = b.meter()
        for _ in range(1000):
            assert meter.charge_state() is None

    def test_describe_lists_limits(self):
        text = Budget(max_states=10, max_seconds=2.0).describe()
        assert "states<=10" in text and "time<=2s" in text

    @pytest.mark.parametrize(
        "limit, expected_max_states",
        [
            (0, 0),
            (-1, -1),
            (7.9, 7),
            (7.0, 7),
            (True, 1),
        ],
        ids=["zero", "negative", "float-truncates", "float-exact", "bool"],
    )
    def test_coercion_edge_cases(self, limit, expected_max_states):
        assert Budget.of(limit).max_states == expected_max_states

    @pytest.mark.parametrize("limit", [0, -1], ids=["zero", "negative"])
    def test_zero_and_negative_trip_immediately(self, limit):
        meter = Budget.of(limit).meter()
        assert meter.charge_state() == LIMIT_STATES

    def test_budget_passthrough_ignores_default(self):
        b = Budget(max_states=5)
        assert Budget.of(b, default=1_000_000) is b

    def test_none_with_none_default_is_unlimited(self):
        meter = Budget.of(None).meter()
        for _ in range(10_000):
            assert meter.charge_state() is None


class TestBudgetSplit:
    def test_counts_partition_exactly(self):
        shards = Budget(max_states=10, max_edges=7).split(3)
        assert [s.max_states for s in shards] == [4, 3, 3]
        assert [s.max_edges for s in shards] == [3, 2, 2]
        assert sum(s.max_states for s in shards) == 10
        assert sum(s.max_edges for s in shards) == 7

    def test_no_remainder_over_allocation(self):
        # The historical ceiling division handed every shard
        # ceil(limit/shards): a 10-state budget split 3 ways authorized
        # 12 states in aggregate.  The partition must never exceed the
        # parent.
        shards = Budget(max_states=10).split(3)
        assert sum(s.max_states for s in shards) == 10

    def test_single_shard_is_identity(self):
        b = Budget(max_states=10)
        assert b.split(1) == (b,)
        assert b.split(1)[0] is b

    def test_unlimited_stays_unlimited(self):
        shards = Budget.unlimited().split(4)
        assert len(shards) == 4
        assert all(s.max_states is None for s in shards)
        assert all(s.max_edges is None for s in shards)

    def test_limit_smaller_than_shard_count(self):
        # 2 states over 8 shards: two shards get 1, six get 0 (which
        # trip on their first charge — what the parent would have done).
        shards = Budget(max_states=2).split(8)
        assert [s.max_states for s in shards] == [1, 1, 0, 0, 0, 0, 0, 0]
        assert shards[-1].meter().charge_state() == LIMIT_STATES

    def test_deadline_shared_not_extended(self):
        b = Budget(max_seconds=60.0)
        for shard in b.split(4):
            assert shard.deadline == b.deadline
            assert shard.max_seconds == b.max_seconds

    @given(
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
        edges=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
        memory=st.one_of(
            st.none(), st.integers(min_value=0, max_value=10**9)
        ),
        shards=st.integers(min_value=1, max_value=64),
    )
    def test_property_children_sum_to_parent(
        self, limit, edges, memory, shards
    ):
        parent = Budget(
            max_states=limit, max_edges=edges, max_memory_bytes=memory
        )
        children = parent.split(shards)
        assert len(children) == shards
        for name in ("max_states", "max_edges", "max_memory_bytes"):
            parts = [getattr(c, name) for c in children]
            total = getattr(parent, name)
            if total is None:
                assert all(p is None for p in parts)
            else:
                assert sum(parts) == total
                # Remainder spreads one-per-shard over the leading
                # shards: the allocation is monotone non-increasing and
                # never varies by more than one unit.
                assert parts == sorted(parts, reverse=True)
                assert parts[0] - parts[-1] <= 1


class TestMergeStats:
    def test_counters_sum_and_clock_maxes(self):
        merged = merge_stats(
            [
                BudgetStats(states=3, edges=5, seconds=1.0, memory_bytes=10),
                BudgetStats(states=4, edges=6, seconds=2.5, memory_bytes=20),
            ]
        )
        assert merged.states == 7 and merged.edges == 11
        assert merged.seconds == 2.5
        assert merged.memory_bytes == 30

    def test_limit_is_first_in_shard_order(self):
        merged = merge_stats(
            [
                BudgetStats(0, 0, 0.0, 0, limit=None),
                BudgetStats(0, 0, 0.0, 0, limit=LIMIT_STATES),
                BudgetStats(0, 0, 0.0, 0, limit=LIMIT_EDGES),
            ]
        )
        assert merged.limit == LIMIT_STATES

    def test_empty_merges_to_zero(self):
        merged = merge_stats([])
        assert merged.states == 0 and merged.limit is None


class TestMeter:
    def test_states_limit_trips(self):
        meter = Budget(max_states=3).meter()
        assert meter.charge_state() is None
        assert meter.charge_state() is None
        assert meter.charge_state() is None
        assert meter.charge_state() == LIMIT_STATES
        assert meter.tripped == LIMIT_STATES

    def test_edges_limit_trips(self):
        meter = Budget(max_edges=2).meter()
        assert meter.charge_edge() is None
        assert meter.charge_edge() is None
        assert meter.charge_edge() == LIMIT_EDGES

    def test_deadline_trips_on_poll(self):
        meter = Budget(max_seconds=0.0).meter()
        assert meter.poll() == LIMIT_TIME

    def test_deadline_is_anchored_at_budget_construction(self):
        # Two meters from the same budget share one absolute deadline —
        # the CLI --timeout bounds the whole command, not each analysis.
        budget = Budget(max_seconds=0.0)
        assert budget.meter().poll() == LIMIT_TIME
        assert budget.meter().poll() == LIMIT_TIME

    def test_memory_estimate_and_limit(self):
        meter = Budget(max_memory_bytes=1).meter()
        meter.charge_state(("some", "state", "tuple"))
        assert meter.memory_estimate() > 1
        assert meter.poll() == "memory"

    def test_mark_interrupted(self):
        meter = Budget().meter()
        assert meter.mark_interrupted() == LIMIT_INTERRUPTED
        assert meter.stats().limit == LIMIT_INTERRUPTED

    def test_stats_snapshot(self):
        meter = Budget(max_states=1).meter()
        meter.charge_state()
        meter.charge_state()
        stats = meter.stats(frontier=4)
        assert isinstance(stats, BudgetStats)
        assert stats.states == 2 and stats.limit == LIMIT_STATES
        assert stats.frontier == 4
        assert "stopped by states limit" in stats.describe()


def _long_chain(length=50, decide_at_end=True):
    edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(length)}
    edges[f"s{length}"] = [("s", f"s{length}")]
    decisions = (
        {f"s{length}": {0: 0, 1: 0}} if decide_at_end else {}
    )
    return ToySystem(edges=edges, decisions=decisions)


class TestGracefulChecker:
    def test_budget_trip_returns_unknown_with_stats(self):
        sys_ = _long_chain()
        checker = ConsensusChecker(sys_, max_states=10)
        report = checker.check(sys_.state("s0"), inputs=(0, 0))
        assert report.verdict is Verdict.UNKNOWN
        assert report.inconclusive and not report.refuted
        assert not report.satisfied
        assert report.budget_stats is not None
        assert report.budget_stats.limit == LIMIT_STATES
        assert report.budget_stats.frontier > 0
        assert report.checkpoint is not None

    def test_strict_restores_the_exception(self):
        sys_ = _long_chain()
        checker = ConsensusChecker(sys_, max_states=10, strict=True)
        with pytest.raises(ExplorationLimitExceeded):
            checker.check(sys_.state("s0"), inputs=(0, 0))

    def test_violation_before_trip_is_still_definitive(self):
        # A violating state within the first few steps must be reported
        # as REFUTED even under a budget that would trip soon after.
        sys_ = ToySystem(
            edges={
                "x": [("a", "bad")],
                "bad": [("s", "bad")],
            },
            decisions={"bad": {0: 0, 1: 1}},
        )
        report = ConsensusChecker(sys_, max_states=2).check(
            sys_.state("x"), inputs=(0, 1)
        )
        assert report.verdict is Verdict.AGREEMENT
        assert report.refuted

    def test_unknown_never_reported_satisfied(self):
        # Budget smaller than the space: the checker must not claim
        # SATISFIED for the part it saw.
        sys_ = _long_chain()
        report = ConsensusChecker(sys_, max_states=5).check(
            sys_.state("s0"), inputs=(0, 0)
        )
        assert not report.satisfied and report.verdict is Verdict.UNKNOWN

    def test_full_budget_reports_satisfied_with_stats(self):
        sys_ = _long_chain()
        report = ConsensusChecker(sys_).check(sys_.state("s0"), inputs=(0, 0))
        assert report.satisfied
        assert report.budget_stats is not None
        assert report.budget_stats.limit is None


class _InterruptingSystem(ToySystem):
    """Raises KeyboardInterrupt from the k-th successors() call."""

    def __init__(self, *args, interrupt_after=3, **kwargs):
        super().__init__(*args, **kwargs)
        self._calls = 0
        self._interrupt_after = interrupt_after

    def successors(self, state):
        self._calls += 1
        if self._calls == self._interrupt_after:
            raise KeyboardInterrupt
        return super().successors(state)


class TestKeyboardInterrupt:
    def test_interrupt_degrades_to_unknown_checkpoint(self):
        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(20)}
        edges["s20"] = [("s", "s20")]
        sys_ = _InterruptingSystem(
            edges=edges,
            decisions={"s20": {0: 0, 1: 0}},
            interrupt_after=5,
        )
        report = ConsensusChecker(sys_).check(sys_.state("s0"), inputs=(0, 0))
        assert report.verdict is Verdict.UNKNOWN
        assert report.interrupted
        assert report.budget_stats.limit == LIMIT_INTERRUPTED
        assert report.checkpoint is not None

    def test_interrupt_strict_reraises(self):
        sys_ = _InterruptingSystem(
            edges={"x": [("s", "x")]}, interrupt_after=1
        )
        with pytest.raises(KeyboardInterrupt):
            ConsensusChecker(sys_, strict=True).check(
                sys_.state("x"), inputs=(0, 0)
            )


class TestStrictTaskChecker:
    """A SATISFIED task report is a solvability claim, so the task
    checker raises where the consensus checker would degrade."""

    def test_budget_trip_raises(self):
        sys_ = _long_chain()
        checker = TaskChecker(sys_, binary_consensus(2), max_states=10)
        with pytest.raises(ExplorationLimitExceeded):
            checker.check(sys_.state("s0"), Simplex.from_values((0, 0)))

    @pytest.mark.parametrize("preflight", [True, False])
    def test_interrupt_propagates(self, preflight):
        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(20)}
        edges["s20"] = [("s", "s20")]
        sys_ = _InterruptingSystem(
            edges=edges,
            decisions={"s20": {0: 0, 1: 0}},
            interrupt_after=5,
        )
        checker = TaskChecker(
            sys_, binary_consensus(2), preflight=preflight
        )
        with pytest.raises(KeyboardInterrupt):
            checker.check(sys_.state("s0"), Simplex.from_values((0, 0)))
