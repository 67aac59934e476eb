"""Measure one workload of the repository benchmark.

    python3 benchsuite/run.py --workload W --seed S --seconds N --trace 0|1

Builds the workload's inputs from the seed, issues ops for N seconds,
checks every result against ``benchsuite/golden.json`` and prints each
metric by name and unit.  Timings are reported at reference speed: each
piece of work is scaled by a host speed sample taken before and after
it (``benchsuite/reference.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, taken from
a separate traced pass.  Everything is read and written inside the
checkout the script sits in; without the program's sources there the
script exits non-zero and prints no result.  ``--program DIR`` measures
the program in ``DIR/src`` with this checkout's benchmark instead, which
is how ``python -m benchsuite pair`` runs two programs side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "benchsuite" / "_work"

#: Cold starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7

#: Prefix of the line carrying the samples behind the metrics.
DETAILS_PREFIX = "details: "


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs, for the suite's smoke test",
    )
    parser.add_argument(
        "--trace-out", type=Path, metavar="PATH",
        help="write the traced pass's spans and aggregates here",
    )
    parser.add_argument(
        "--program", type=Path, default=ROOT, metavar="DIR",
        help="the tree whose src/repro is measured (default: this checkout)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_argv(args, *extra: str) -> list[str]:
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--program", str(args.program),
    ]
    if args.smoke:
        argv.append("--smoke")
    return argv + list(extra)


def cold_start(args) -> float:
    """Seconds from starting a fresh interpreter until the workload is
    ready for its first op: imports, inputs, server up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        child_argv(args, "--setup-only"),
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"cold start of {args.workload} failed")
    return seconds


def latency_summary(seconds: list[float]) -> dict:
    from benchsuite.stats import percentile

    ms = [s * 1e3 for s in seconds]
    return {
        "n": len(ms),
        "p50": statistics.median(ms),
        "p90": percentile(ms, 90),
        "p99": percentile(ms, 99),
        "max": max(ms),
    }


def end_to_end(workload, args) -> tuple[dict, dict, list]:
    """Every timing at reference speed (``benchsuite/reference.py``);
    the raw numbers are kept in the details."""
    from benchsuite.reference import HostSpeed, cold_start_at_reference
    from benchsuite.stats import summary

    width = min(workload.cores, len(os.sched_getaffinity(0)))
    with HostSpeed(width) as speed:
        # Cold starts are spread over the run: two before it, one
        # between ops at each fifth of it, the rest after it.
        # Back-to-back cold starts share one burst of load from
        # elsewhere on the machine.
        setup: list[tuple[float, float]] = []

        def setup_sample() -> None:
            setup.append(cold_start_at_reference(lambda: cold_start(args)))
            # A fresh sample, so that the op after a cold start is
            # scaled by the host speed right before it.
            speed.mark()

        for _ in range(2):
            setup_sample()
        due = [args.seconds * k / 5 for k in range(1, 5)]

        def between_ops(elapsed: float) -> None:
            if due and elapsed >= due[0]:
                del due[0]
                setup_sample()

        workload.setup()
        try:
            measured = workload.run(args.seconds, speed, between_ops)
        finally:
            workload.teardown()
        while len(setup) < SETUP_SAMPLES:
            setup_sample()
        factors = speed.factors
    ops = measured.ops
    metrics = {
        "setup_s": statistics.median(at_reference for _, at_reference in setup),
        "ops_per_s": len(ops) / measured.wall_at_reference,
        "op_p50_ms": statistics.median(op.at_reference for op in ops) * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    details = dict(measured.details)
    details["raw"] = {
        "setup_s": statistics.median(seconds for seconds, _ in setup),
        "ops_per_s": len(ops) / measured.wall_seconds,
        "op_p50_ms": statistics.median(op.seconds for op in ops) * 1e3,
    }
    details["setup_s"] = [at_reference for _, at_reference in setup]
    details["host_speed"] = {"width": width, **summary(factors)}
    details["wall_s"] = measured.wall_seconds
    # Explored states per op are fixed on three workloads, which makes
    # this ops_per_s times a constant there; it is kept as a number
    # without a bound.
    details["states_per_s"] = (
        sum(op.states for op in ops) / measured.wall_at_reference
    )
    details["op_ms"] = latency_summary([op.at_reference for op in ops])
    for kind in sorted({op.kind for op in ops} - {"op"}):
        details[f"{kind}_ms"] = latency_summary(
            [op.at_reference for op in ops if op.kind == kind]
        )
    return metrics, details, ops


def traced(workload, args) -> tuple[dict, dict, list]:
    from benchsuite.probes import probe_metrics
    from benchsuite.trace import Tracer, layer_metrics, trace_document

    tracer = Tracer()
    passed = workload.traced(tracer, args.seconds)
    # Layers a workload does not reach read 0.
    metrics = {
        "resilience.pool.shards_per_op": 0.0,
        "resilience.pool.useful_ratio": 0.0,
        "resilience.pool.overhead_ms": 0.0,
        "resilience.wire.result_bytes_per_op": 0.0,
        "serve.engine_ms": 0.0,
        "serve.server_overhead_ms": 0.0,
        "serve.store_hits": 0,
        "serve.stored": 0,
        "serve.errors": 0,
    }
    metrics.update(layer_metrics(tracer, sum(op.states for op in passed.traced)))
    metrics.update(passed.metrics)
    metrics.update(probe_metrics(workload, passed.values))
    # Budget charging is too fine to time per call; its share is
    # estimated from the charge count and the probed cost per charge.
    metrics["resilience.budget.est_share"] = (
        metrics["resilience.budget.charges_per_op"]
        * metrics["resilience.budget.charge_ns"] / 1e9
        / passed.baseline_seconds
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.seconds for op in passed.traced)
        / passed.baseline_seconds
    )
    if args.trace_out is not None:
        document = trace_document(tracer)
        document["metrics"] = metrics
        args.trace_out.write_text(json.dumps(document))
    details = {"traced_op_ms": latency_summary([op.seconds for op in passed.traced])}
    return metrics, details, passed.ops


def main(argv=None) -> int:
    args = parse_args(argv)
    src = args.program.resolve() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from repro.resilience.chaos import ENV_SCOPE, ENV_SPECS, ENV_TRACE, rearm_from_env

    # The program is measured with no crashpoints armed.
    for var in (ENV_SPECS, ENV_TRACE, ENV_SCOPE):
        os.environ.pop(var, None)
    rearm_from_env()
    from benchsuite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"run.py: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    # Temporary files of the program and of the processes it starts
    # stay inside the checkout too.
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.setup_only:
            workload.setup()
            print("ready", flush=True)
            workload.teardown()
            return 0
        measure = traced if args.trace else end_to_end
        metrics, details, ops = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json"
        )
    failed = sum(not op.ok for op in ops)
    server_errors = details.get("server", {}).get("errors", 0)
    details["failed_ratio"] = failed / len(ops)
    for m in declared:
        print(f"{args.workload}  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    print(DETAILS_PREFIX + json.dumps(details), flush=True)
    print(json.dumps({
        "correct": failed == 0 and server_errors == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
