"""E14 — parallel verification: determinism and scaling of the pool.

The fault-isolated worker pool (:mod:`repro.resilience.pool`) shards a
``check_all`` input sweep across processes.  This bench runs the heaviest
shipped sweep — EIG at ``t+1 = 3`` rounds in the ``S^t`` system with
``n = 4`` (16 input assignments, ~8k states) — at ``workers ∈ {1, 2, 4}``
and records wall clock, verified states/second and speedup vs the
sequential engine.

Cold-start is measured separately from steady-state: the pool reports
its ``spawn_seconds`` (process fan-out and context unpickling) through
a ``report_sink`` hook, and the table shows both the
total ("cold s") and the total minus cold-start ("steady s").  The
speedup column is computed on **steady-state** time — the engine's
scaling — so process spawn cost is never silently booked against the
exploration itself (it is still visible, in its own column).

Two properties are asserted; one is only *recorded*:

* **determinism** (asserted) — every worker count yields the identical
  verdict and state count; the merge is a pure function of the input.
* **bounded overhead** (asserted) — the parallel run must not cost more
  than ``OVERHEAD_FACTOR``× the sequential wall clock even with no cores
  to gain from (the per-shard dispatch cost stays small relative to the
  shard's work: payloads are index spans, the system ships once per
  worker).
* **speedup** (recorded) — actual wall-clock gain is a function of the
  machine: on a single-core container (like the CI box this table was
  first generated on) the workers timeslice one CPU and the speedup
  column cannot exceed ~1x by construction; with real cores the sweep
  scales with the slowest shard.  The table records ``cores`` so the
  context is in the artifact.
"""

import os
import time
from dataclasses import replace

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker
from repro.protocols.eig import EIG
from repro.resilience.pool import PoolConfig

#: Parallel dispatch may cost at most this factor vs sequential wall
#: clock (generous: it must hold even on a single-core machine where
#: parallelism cannot pay for itself).
OVERHEAD_FACTOR = 3.0

WORKER_COUNTS = [1, 2, 4]


def make_sweep_system():
    """EIG(3) under S^t with n=4, t=2: 16 assignments, ~8k states."""
    return make_st_system(EIG(3), 4, 2)


def run_sweep(workers: int, sink=None):
    system = make_sweep_system()
    pool = None
    if sink is not None:
        pool = replace(PoolConfig(workers=workers), report_sink=sink)
    return ConsensusChecker(system).check_all(
        system.model, workers=workers, pool=pool
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_e14_sweep_scaling(benchmark, workers):
    report = benchmark.pedantic(run_sweep, args=(workers,), rounds=1)
    assert report.satisfied


def test_e14_table():
    timings = {}
    spawn = {}
    reports = {}
    for workers in WORKER_COUNTS:
        pool_reports = []
        start = time.perf_counter()
        reports[workers] = run_sweep(workers, sink=pool_reports.append)
        timings[workers] = time.perf_counter() - start
        spawn[workers] = sum(r.spawn_seconds for r in pool_reports)

    baseline = reports[WORKER_COUNTS[0]]
    assert baseline.satisfied
    for workers in WORKER_COUNTS[1:]:
        assert reports[workers].verdict is baseline.verdict
        assert (
            reports[workers].states_explored == baseline.states_explored
        )

    base_steady = timings[WORKER_COUNTS[0]] - spawn[WORKER_COUNTS[0]]
    rows = []
    for workers in WORKER_COUNTS:
        cold = timings[workers]
        steady = max(cold - spawn[workers], 1e-9)
        rows.append(
            [
                workers,
                reports[workers].states_explored,
                f"{cold:.2f}",
                f"{spawn[workers]:.2f}",
                f"{steady:.2f}",
                f"{reports[workers].states_explored / steady:,.0f}",
                f"{base_steady / steady:.2f}x",
            ]
        )
    cores = len(os.sched_getaffinity(0))
    save_table(
        "e14_parallel_speedup",
        "E14: parallel check_all scaling (EIG(3), S^t, n=4, t=2; "
        f"{cores} core(s) available; identical verdicts asserted; "
        "speedup computed on steady-state time, i.e. total minus pool "
        "spawn)",
        render_table(
            [
                "workers",
                "states",
                "cold s",
                "spawn s",
                "steady s",
                "states/sec",
                "speedup",
            ],
            rows,
        ),
    )
    slowest = max(timings[w] for w in WORKER_COUNTS[1:])
    assert slowest < timings[WORKER_COUNTS[0]] * OVERHEAD_FACTOR, (
        f"parallel run cost {slowest:.2f}s vs sequential "
        f"{timings[WORKER_COUNTS[0]]:.2f}s exceeds the "
        f"{OVERHEAD_FACTOR}x overhead bound"
    )
