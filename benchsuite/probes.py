"""Micro-benchmarks for layer costs a wrapper cannot isolate.

Each probe repeats its measurement and reports the median, on data
taken from the workload itself (its states, its results, its systems),
so every workload reports every probe and a change to one layer shows
in the same number on each workload.
"""

from __future__ import annotations

import statistics
from collections import deque
from pathlib import Path
from time import perf_counter_ns

from repro.core.state import GlobalState
from repro.lint.contracts import preflight_system
from repro.resilience import wire
from repro.resilience.budget import DEFAULT_MAX_STATES, Budget
from repro.resilience.journal import CampaignJournal
from repro.resilience.pool import PoolConfig, run_units

REPEATS = 5
SAMPLE_STATES = 1_000


def sample_states(systems: list[tuple], count: int = SAMPLE_STATES) -> list:
    """At least *count* states, breadth-first from each system's roots
    in turn (cycling when the systems hold fewer)."""
    share = count // len(systems) + 1
    states: list = []
    for system, roots in systems:
        seen = set(roots)
        queue = deque(roots)
        taken = 0
        while queue and taken < share:
            state = queue.popleft()
            states.append(state)
            taken += 1
            for _, child in system.successors(state):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    base = list(states)
    while len(states) < count:
        states.extend(base)
    return states


def state_costs(states: list) -> tuple[float, float]:
    """Nanoseconds to build a ``GlobalState`` and to hash the fresh one."""
    parts = [(s.env, s.locals) for s in states]
    build, hashing = [], []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        built = [GlobalState(env, locals_) for env, locals_ in parts]
        middle = perf_counter_ns()
        for state in built:
            hash(state)
        end = perf_counter_ns()
        build.append((middle - start) / len(parts))
        hashing.append((end - middle) / len(parts))
    return statistics.median(build), statistics.median(hashing)


def charge_cost(charges: int) -> float:
    """Nanoseconds per budget charge, states and edges alternating."""
    samples = []
    for _ in range(REPEATS):
        meter = Budget.of(DEFAULT_MAX_STATES).meter()
        start = perf_counter_ns()
        for _ in range(charges // 2):
            meter.charge_state()
            meter.charge_edge()
        samples.append((perf_counter_ns() - start) / charges)
    return statistics.median(samples)


def dumps_cost(values: list) -> float:
    """Microseconds to wire-encode one result value."""
    samples = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for value in values:
            wire.dumps(value)
        samples.append((perf_counter_ns() - start) / len(values) / 1e3)
    return statistics.median(samples)


def journal_cost(workdir: Path, values: list, records: int) -> float:
    """Milliseconds to append one fsync'd journal record of a result."""
    path = workdir / "probe.journal"
    journal = CampaignJournal.create(path, checkpoint_interval=1)
    samples = []
    try:
        for i in range(records):
            start = perf_counter_ns()
            journal.record(f"probe:{i}", values[i % len(values)])
            samples.append((perf_counter_ns() - start) / 1e6)
    finally:
        journal.close()
        path.unlink()
    return statistics.median(samples)


def preflight_cost(systems: list[tuple]) -> float:
    """Milliseconds for one default contract probe of a system."""
    samples = []
    for _ in range(3):
        start = perf_counter_ns()
        for system, roots in systems:
            preflight_system(system, roots)
        samples.append((perf_counter_ns() - start) / len(systems) / 1e6)
    return statistics.median(samples)


def _idle_unit(payload, context):
    return payload


def spawn_cost(systems: list[tuple]) -> float:
    """Milliseconds for a two-worker pool to come up with the systems
    as its shared context."""
    reports: list = []
    context = [system for system, _ in systems]
    for _ in range(3):
        run_units(
            _idle_unit, [(0, 0), (1, 1)],
            PoolConfig(workers=2, report_sink=reports.append),
            context=context,
        )
    return statistics.median(r.spawn_seconds for r in reports) * 1e3


def probe_metrics(workload, values: list) -> dict:
    systems = workload.systems()
    build_ns, hash_ns = state_costs(sample_states(systems))
    return {
        "core.state.build_ns": build_ns,
        "core.state.hash_ns": hash_ns,
        "resilience.budget.charge_ns": charge_cost(
            10**5 if workload.smoke else 10**6
        ),
        "resilience.wire.dumps_us": dumps_cost(values),
        "resilience.journal.record_ms": journal_cost(
            workload.workdir, values, 5 if workload.smoke else 20
        ),
        "lint.contracts.preflight_ms": preflight_cost(systems),
        "resilience.pool.spawn_ms": spawn_cost(systems),
    }
