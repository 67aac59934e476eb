"""E13 — budget metering overhead: the cooperative checks must be cheap.

The resilience layer's budget meter is charged from the hottest loops in
the library (every state and edge of every exhaustive search), so its
cost is a tax on *all* verification.  Two measurements:

* **macro** — states/second of a full :func:`repro.core.exploration.explore`
  sweep of the synchronic read/write layering under three budgets:
  ``unlimited`` (no limits armed), ``states-int`` (the legacy
  ``max_states: int`` path through ``Budget.of``), and ``full`` (all four
  limits armed high enough never to trip — the worst realistic case).
* **micro** — nanoseconds per ``charge_state`` call on a bare meter, which
  bounds the per-state cost independent of successor generation.

The macro sweep runs the three budgets interleaved, one round after
another (``unlimited, states-int, full`` per round, ``REPEATS`` rounds),
so drift in machine speed hits every configuration alike.  The table
reports each configuration's median states/second with its
interquartile range, and the full-vs-unlimited overhead as the median
(and IQR) of the per-round ratios.

The acceptance bar is that the fully-armed budget costs < 5% relative to
the unlimited baseline on the macro sweep.  In practice successor
generation dominates by orders of magnitude, so the measured overhead sits
inside timer noise; the table under ``benchmarks/results/`` records both
numbers.
"""

import statistics
import time

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.core.exploration import explore
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget

#: The allowed relative slowdown of fully-armed budgets vs unlimited.
OVERHEAD_BAR = 0.05

#: Timer-noise allowance for the hard assertion on shared machines.
NOISE_ALLOWANCE = 0.10

#: Interleaved rounds of the macro sweep (each runs every config once).
REPEATS = 7


def make_system(n: int = 3):
    """The E12 shared-memory workload (~650 states, ~2100 edges)."""
    return SynchronicRWLayering(SharedMemoryModel(QuorumDecide(n - 1), n))


def budget_for(config: str) -> Budget:
    """The three measured budget configurations."""
    if config == "unlimited":
        return Budget.unlimited()
    if config == "states-int":
        return Budget.of(50_000_000)
    if config == "full":
        return Budget(
            max_states=50_000_000,
            max_edges=500_000_000,
            max_seconds=3600.0,
            max_memory_bytes=1 << 40,
        )
    raise ValueError(config)


def run_explore(config: str):
    system = make_system()
    roots = list(system.model.initial_states((0, 1)))
    stats = explore(system, roots, max_states=budget_for(config))
    assert stats.complete
    return stats


CONFIGS = ["unlimited", "states-int", "full"]


@pytest.mark.parametrize("config", CONFIGS)
def test_e13_explore_under_budget(benchmark, config):
    stats = benchmark(run_explore, config)
    assert stats.states > 0


def _interleaved_rates(repeats: int = REPEATS) -> tuple[dict, dict]:
    """States/second of every config over *repeats* interleaved rounds:
    ``({config: [rate per round]}, {config: states})``."""
    rates: dict = {config: [] for config in CONFIGS}
    states: dict = {}
    for _ in range(repeats):
        for config in CONFIGS:
            start = time.perf_counter()
            stats = run_explore(config)
            elapsed = time.perf_counter() - start
            states[config] = stats.states
            rates[config].append(stats.states / elapsed)
    return rates, states


def _median_iqr(samples) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q3 - q1


def _charge_ns(config: str, calls: int = 200_000) -> float:
    """Nanoseconds per charge_state on a bare meter (no exploration)."""
    meter = budget_for(config).meter()
    token = ("p", 0, frozenset((0, 1)))
    start = time.perf_counter()
    for _ in range(calls):
        meter.charge_state(token)
    return (time.perf_counter() - start) / calls * 1e9


def test_e13_table():
    rates, states = _interleaved_rates()
    rows = []
    for config in CONFIGS:
        median, iqr = _median_iqr(rates[config])
        rows.append(
            [
                config,
                states[config],
                f"{median:,.0f}",
                f"{iqr:,.0f}",
                f"{_charge_ns(config):.0f}",
            ]
        )
    overhead, overhead_iqr = _median_iqr(
        [
            unlimited / full - 1.0
            for unlimited, full in zip(rates["unlimited"], rates["full"])
        ]
    )
    rows.append(
        [
            "full-vs-unlimited overhead",
            "-",
            f"{overhead:+.1%}",
            f"{overhead_iqr:.1%}",
            "-",
        ]
    )
    save_table(
        "e13_budget_overhead",
        "E13: budget metering overhead (explore, synchronic-rw "
        f"QuorumDecide n=3; {REPEATS} interleaved rounds, median and "
        f"IQR; bar: <{OVERHEAD_BAR:.0%})",
        render_table(
            ["budget", "states", "states/sec", "IQR", "ns/charge"], rows
        ),
    )
    assert overhead < OVERHEAD_BAR + NOISE_ALLOWANCE, (
        f"budget metering overhead {overhead:.1%} is far above the "
        f"{OVERHEAD_BAR:.0%} target"
    )
