"""Spans recorded from outside the program, around calls into each layer.

Tracing wraps public methods and functions of the program for the
length of a traced pass and restores them afterwards; the end-to-end
runs never install a wrapper.  Every wrapped call updates per-name
aggregates (calls, inclusive time, self time = inclusive minus wrapped
children); the coarse calls — ops, preflight, valence queries, sweeps,
campaigns, journal appends — are also kept as spans (name, start, end,
parent, op id) in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import repro.analysis.impossibility as impossibility
import repro.lint.contracts as contracts
from repro.core.cache import CachedSystem, aggregate_stats
from repro.core.checker import ConsensusChecker
from repro.core.valence import ValenceAnalyzer
from repro.layerings.iterated_snapshot import IteratedSnapshotLayering
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.layerings.synchronic_mp import SynchronicMPLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.models.snapshot import SnapshotMemoryModel
from repro.models.sync import SynchronousModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import BudgetMeter
from repro.resilience.journal import CampaignJournal

from benchsuite.stats import ratio

LAYERINGS = (
    IteratedSnapshotLayering, PermutationLayering, S1MobileLayering,
    StSynchronousLayering, SynchronicMPLayering, SynchronicRWLayering,
)
MODELS = (
    AsyncMessagePassingModel, MobileModel, SharedMemoryModel,
    SnapshotMemoryModel, SynchronousModel,
)
PROTOCOL_CLASSES = (EIG, FloodSet, QuorumDecide, WaitForAll)
PROTOCOL_METHODS = ("transition", "outgoing", "observe", "after_reads", "decision")

#: Calls kept as spans, and the scopes edges are attributed to.
SPANS = frozenset({
    "op",
    "lint.contracts.preflight_once",
    "core.valence.valence",
    "core.checker.check_all",
    "analysis.impossibility.run_campaign",
    "resilience.journal.record",
    "resilience.journal.sync",
    "serve.run_job",
})

_MISSING = object()


class OpSpan:
    """The duration of one traced op, readable after it ends."""

    seconds = 0.0


class Tracer:
    """Aggregates and spans of one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # by enclosing span
        self.spans: list[dict] = []
        self.op_id = None
        self.op_count = 0
        self.op_ns = 0
        self.valence_states: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _enter(self, name: str) -> list:
        frame = [name, 0, 0]
        self.stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> int:
        end = perf_counter_ns()
        self.stack.pop()
        name, start, children = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - children
        if self.stack:
            self.stack[-1][2] += duration
        if name in SPANS:
            self.spans.append({
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": self.stack[-1][0] if self.stack else None,
                "op": self.op_id,
            })
        return duration

    def scope(self) -> str:
        """The innermost open span: where an edge's cost belongs."""
        for frame in reversed(self.stack):
            if frame[0] in SPANS:
                return frame[0]
        return "op"

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def op(self, op_id):
        """One traced op: a root span plus the cache counters it moved."""
        self.op_id = op_id
        handle = OpSpan()
        before = aggregate_stats()
        frame = self._enter("op")
        try:
            yield handle
        finally:
            duration = self._exit(frame)
            after = aggregate_stats()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses
            self.op_count += 1
            self.op_ns += duration
            handle.seconds = duration / 1e9
            self.op_id = None

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


# -- what each wrapper observes ---------------------------------------------

def _observe_successors(tracer: Tracer, args, result) -> None:
    tracer.edges[tracer.scope()] += len(result)


def _observe_sweep(tracer: Tracer, args, report) -> None:
    tracer.counts["core.checker.states"] += report.states_explored


def _observe_valence(tracer: Tracer, args, result) -> None:
    analyzer = args[0]
    tracer.valence_states[tracer.op_id] = analyzer.explored_states


def _observe_preflight(tracer: Tracer, args, report) -> None:
    if report is not None:
        tracer.counts["lint.contracts.states_probed"] += report.states_probed


@contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the length of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def timed(owner, attr, name, observe=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))

    try:
        for cls in LAYERINGS:
            timed(cls, "successors", "layerings.successors", _observe_successors)
            for attr in ("apply", "decisions", "failed_at"):
                timed(cls, attr, f"layerings.{attr}")
        for cls in MODELS:
            for attr in ("apply", "actions", "decisions", "failed_at"):
                timed(cls, attr, f"models.{attr}")
        for cls in PROTOCOL_CLASSES:
            for attr in PROTOCOL_METHODS:
                if hasattr(cls, attr):
                    timed(cls, attr, f"protocols.{attr}")
        for attr in ("successors", "failed_at", "decisions"):
            timed(CachedSystem, attr, f"core.cache.{attr}")
        for attr in ("charge_state", "charge_edge"):
            patch(BudgetMeter, attr, tracer.count(
                "resilience.budget.charges", getattr(BudgetMeter, attr)
            ))
        timed(ValenceAnalyzer, "valence", "core.valence.valence", _observe_valence)
        timed(ConsensusChecker, "check_all", "core.checker.check_all", _observe_sweep)
        timed(CampaignJournal, "record", "resilience.journal.record")
        timed(CampaignJournal, "sync", "resilience.journal.sync")
        timed(contracts, "preflight_once", "lint.contracts.preflight_once",
              _observe_preflight)
        timed(impossibility, "run_campaign", "analysis.impossibility.run_campaign")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- per-layer metrics --------------------------------------------------------

def layer_self_ns(tracer: Tracer, layer: str) -> int:
    return sum(
        ns for name, ns in tracer.self_ns.items()
        if name.rsplit(".", 1)[0] == layer
    )


def layer_calls(tracer: Tracer, layer: str) -> int:
    return sum(
        calls for name, calls in tracer.calls.items()
        if name.rsplit(".", 1)[0] == layer
    )


def layer_metrics(tracer: Tracer, states: int) -> dict:
    """The per-layer metrics a tracer's records give; *states* is the
    number of states the traced ops explored."""
    ops = tracer.op_count
    wall = tracer.op_ns
    edges = sum(tracer.edges.values())
    lookups = tracer.cache_hits + tracer.cache_misses
    journal_ns = (
        tracer.total_ns["resilience.journal.record"]
        + tracer.total_ns["resilience.journal.sync"]
    )
    return {
        "protocols.calls_per_edge": ratio(layer_calls(tracer, "protocols"), edges),
        "protocols.self_share": ratio(layer_self_ns(tracer, "protocols"), wall),
        "models.apply_per_edge": ratio(tracer.calls["models.apply"], edges),
        "models.apply_us": ratio(
            tracer.total_ns["models.apply"], tracer.calls["models.apply"]
        ) / 1e3,
        "models.self_share": ratio(layer_self_ns(tracer, "models"), wall),
        "layerings.successors_per_state": ratio(
            tracer.calls["layerings.successors"], states
        ),
        "layerings.self_share": ratio(layer_self_ns(tracer, "layerings"), wall),
        "core.valence.self_share": ratio(layer_self_ns(tracer, "core.valence"), wall),
        "core.valence.states_per_op": ratio(sum(tracer.valence_states.values()), ops),
        "core.checker.self_share": ratio(layer_self_ns(tracer, "core.checker"), wall),
        "core.checker.states_per_op": ratio(
            tracer.counts["core.checker.states"], ops
        ),
        "core.checker.edges_per_op": ratio(
            tracer.edges["core.checker.check_all"], ops
        ),
        "core.cache.hit_ratio": ratio(tracer.cache_hits, lookups),
        "core.cache.lookups_per_op": ratio(lookups, ops),
        "core.cache.self_share": ratio(layer_self_ns(tracer, "core.cache"), wall),
        "resilience.budget.charges_per_op": ratio(
            tracer.counts["resilience.budget.charges"], ops
        ),
        "lint.contracts.states_probed": ratio(
            tracer.counts["lint.contracts.states_probed"], ops
        ),
        "lint.contracts.share": ratio(
            tracer.total_ns["lint.contracts.preflight_once"], wall
        ),
        "resilience.journal.records_per_op": ratio(
            tracer.calls["resilience.journal.record"], ops
        ),
        "resilience.journal.share": ratio(journal_ns, wall),
    }


def trace_document(tracer: Tracer) -> dict:
    """The spans and aggregates of a pass, for ``BENCH_trace_*.json``."""
    return {
        "ops": tracer.op_count,
        "op_seconds": tracer.op_ns / 1e9,
        "calls": dict(tracer.calls),
        "total_ns": dict(tracer.total_ns),
        "self_ns": dict(tracer.self_ns),
        "counts": dict(tracer.counts),
        "edges": dict(tracer.edges),
        "spans": tracer.spans,
    }
