"""The four benchmark workloads: inputs from a seed, the op, its check.

Each workload turns ``--seed`` into the inputs of its ops, issues ops
for a fixed time and checks every result against ``golden.json``.  The
program under test receives only the generated inputs.  Seeds change the
*order* of the work (root order, value-domain order, protocol order, the
serve request plan), never its amount, so runs with different seeds
measure the same work and their numbers can be pooled.

``valence-per3``
    Exact valence of every ``Con_0`` root of the permutation layering
    over asynchronous message passing (QuorumDecide, n=3): the layer
    fold and nothing else.
``sweep-st``
    The ``t+1`` tightness sweep: EIG with 3 rounds in ``S^t`` (n=4,
    t=2), every state checked, SATISFIED.
``campaign-par``
    ``repro impossibility --n 3 --workers 2 --checkpoint`` minus
    interpreter start, once for each registry protocol in seeded order:
    preflight, caches, shard dispatch, journal fsyncs.
``serve-n2``
    ``repro serve`` under a closed loop of two clients; one request in
    three is a new n=2 refute job, the rest repeat the client's earlier
    jobs and are answered from the verdict store.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import repro
from repro.analysis.impossibility import refute_candidate, standard_layerings
from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.protocols.eig import EIG
from repro.protocols.registry import PROTOCOLS
from repro.resilience import wire
from repro.resilience.journal import CampaignJournal, load_journal
from repro.resilience.pool import PoolConfig, run_units
from repro.serve.client import ServeClient, ServerGone, wait_for_endpoint
from repro.serve.jobs import run_job
from repro.serve.server import LEDGER_NAME

from benchsuite.reference import HostSpeed
from benchsuite.stats import ratio
from benchsuite.trace import Tracer, tracing

HERE = Path(__file__).resolve().parent
#: The sources of the program under test, which need not be this
#: checkout's (``python -m benchsuite pair`` measures two programs).
SRC = Path(repro.__file__).resolve().parent.parent
GOLDEN_PATH = HERE / "golden.json"

VALUES = (0, 1)

#: Untraced ops a traced pass times first, for the tracing overhead.
BASELINE_OPS = 2


@dataclass
class Op:
    """One completed op: its latency, raw and at reference speed (see
    ``benchsuite/reference.py``), and what its result was worth."""

    seconds: float
    states: int
    ok: bool
    kind: str = "op"
    at_reference: float = 0.0


@dataclass
class Measurement:
    """What one untraced run produced: its ops and the wall time of the
    loop that issued them, raw and at reference speed.  The loop's time
    excludes the host speed samples and the cold starts between ops."""

    ops: list[Op]
    wall_seconds: float
    wall_at_reference: float
    details: dict = field(default_factory=dict)


@dataclass
class TracedPass:
    """What one traced pass produced, beside the tracer's own records."""

    ops: list[Op]
    traced: list[Op]
    baseline_seconds: float
    metrics: dict
    values: list


# -- golden results -------------------------------------------------------

GOLDEN_FIELDS = ("verdict", "inputs", "states_explored", "schedule_length")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def refute_key(protocol: str, model: str, n: int) -> str:
    return f"{protocol}/{model}/n{n}"


def verdict_fields(report) -> dict:
    """The golden fields of a consensus report; a serve verdict record
    carries the same keys."""
    return {
        "verdict": report.verdict.value,
        "inputs": None if report.inputs is None else list(report.inputs),
        "states_explored": report.states_explored,
        "schedule_length": (
            None if report.execution is None
            else len(report.execution.actions)
        ),
    }


def valence_fields(result) -> dict:
    return {
        "values": sorted(result.values),
        "diverges": result.diverges,
        "complete": result.complete,
    }


def assignment_key(assignment) -> str:
    return "".join(str(v) for v in assignment)


def build_golden() -> dict:
    """Every expected result, from the sequential, uncached engine."""
    golden: dict = {"valence": {}, "sweep": {}, "refute": {}}
    for label, smoke in (("full", False), ("smoke", True)):
        golden["valence"][label] = ValencePer3.reference(smoke)
        golden["sweep"][label] = SweepSt.reference(smoke)
    for name in sorted(PROTOCOLS):
        for n in (2, 3):
            for refutation in refute_candidate(PROTOCOLS[name](n), n, cache=False):
                key = refute_key(name, refutation.model_name, n)
                golden["refute"][key] = verdict_fields(refutation.report)
    return golden


# -- workloads ------------------------------------------------------------

class Workload:
    """One workload: seeded inputs, a timed op and its golden check.

    Subclasses define :meth:`items` (the op inputs, without end),
    :meth:`issue` (the op itself, the only timed code) and :meth:`check`.
    """

    name = ""
    #: Cores an op keeps busy; host speed is sampled on as many.
    cores = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.size = "smoke" if smoke else "full"
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.golden = load_golden()

    def setup(self) -> None:
        """Everything before the first op (``setup_s`` times it)."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def peak_rss_mb(self) -> float:
        """Largest resident set of the process the program ran in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def items(self) -> Iterator:
        raise NotImplementedError

    def issue(self, item, **options):
        raise NotImplementedError

    def check(self, item, result) -> tuple[int, bool]:
        """``(states explored, result matches golden)``."""
        raise NotImplementedError

    def systems(self) -> list[tuple]:
        """``(system, roots)`` pairs the probes measure."""
        raise NotImplementedError

    def wire_values(self, results: list) -> list:
        """Op results as they would cross a process boundary."""
        return results

    def timed(self, item, **options) -> tuple[Op, object]:
        # A fresh heap per op, as a fresh CLI run has: garbage of the
        # previous op is collected outside the timed region.
        gc.collect()
        start = time.perf_counter()
        result = self.issue(item, **options)
        seconds = time.perf_counter() - start
        states, ok = self.check(item, result)
        return Op(seconds, states, ok), result

    def measured(self, item, speed: HostSpeed) -> tuple[Op, float, float]:
        """One op of the measured loop, then a host speed sample.
        Returns the op and the loop time it took (its ``gc.collect()``
        and golden check included), raw and at reference speed."""
        start = time.perf_counter()
        op, _ = self.timed(item)
        loop = time.perf_counter() - start
        factor = speed.mark()
        op.at_reference = op.seconds * factor
        return op, loop, loop * factor

    def run(self, seconds: float, speed: HostSpeed,
            between_ops=None) -> Measurement:
        """Issue ops until *seconds* of wall time have passed, calling
        ``between_ops(seconds elapsed)`` after each one."""
        ops: list[Op] = []
        wall = wall_at_reference = 0.0
        begin = time.perf_counter()
        for item in self.items():
            if ops and time.perf_counter() - begin >= seconds:
                break
            op, loop, loop_at_reference = self.measured(item, speed)
            ops.append(op)
            wall += loop
            wall_at_reference += loop_at_reference
            if between_ops is not None:
                between_ops(time.perf_counter() - begin)
        return Measurement(ops, wall, wall_at_reference)

    def traced(self, tracer: Tracer, seconds: float) -> TracedPass:
        """Untraced baseline ops, then traced ops for *seconds*."""
        items = self.items()
        baseline = [self.timed(next(items))[0] for _ in range(BASELINE_OPS)]
        traced: list[Op] = []
        results = []
        spent = 0.0
        with tracing(tracer):
            while not traced or spent < seconds:
                item = next(items)
                gc.collect()
                with tracer.op(len(traced)) as span:
                    result = self.issue(item)
                states, ok = self.check(item, result)
                traced.append(Op(span.seconds, states, ok))
                results.append(result)
                spent += span.seconds
        return TracedPass(
            ops=baseline + traced,
            traced=traced,
            baseline_seconds=statistics.median(op.seconds for op in baseline),
            metrics={},
            values=self.wire_values(results),
        )


class ValencePer3(Workload):
    name = "valence-per3"

    #: (quorum, n) of QuorumDecide in the permutation layering.
    FULL = (2, 3)
    SMOKE = (2, 2)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        n = (self.SMOKE if smoke else self.FULL)[1]
        self.assignments = list(itertools.product(VALUES, repeat=n))

    @classmethod
    def layering(cls, smoke: bool):
        quorum, n = cls.SMOKE if smoke else cls.FULL
        return PermutationLayering(
            AsyncMessagePassingModel(QuorumDecide(quorum), n)
        )

    @classmethod
    def reference(cls, smoke: bool) -> dict:
        layering = cls.layering(smoke)
        analyzer = ValenceAnalyzer(layering)
        roots = {
            assignment_key(a): valence_fields(
                analyzer.valence(layering.model.initial_state(a))
            )
            for a in itertools.product(VALUES, repeat=layering.n)
        }
        return {"roots": roots, "explored_states": analyzer.explored_states}

    def items(self):
        while True:
            order = list(self.assignments)
            self.rng.shuffle(order)
            yield order

    def issue(self, order, **options):
        layering = self.layering(self.smoke)
        analyzer = ValenceAnalyzer(layering)
        results = {
            a: analyzer.valence(layering.model.initial_state(a)) for a in order
        }
        return results, analyzer.explored_states

    def check(self, order, result):
        results, explored = result
        golden = self.golden["valence"][self.size]
        ok = explored == golden["explored_states"] and all(
            valence_fields(results[a]) == golden["roots"][assignment_key(a)]
            for a in order
        )
        return explored, ok

    def systems(self):
        layering = self.layering(self.smoke)
        return [(layering, layering.model.initial_states(VALUES))]

    def wire_values(self, results):
        return [values for values, _ in results]


class SweepSt(Workload):
    name = "sweep-st"

    #: (EIG rounds, n, t) of the S^t system.
    FULL = (3, 4, 2)
    SMOKE = (3, 3, 2)

    @classmethod
    def system(cls, smoke: bool):
        rounds, n, t = cls.SMOKE if smoke else cls.FULL
        return make_st_system(EIG(rounds), n, t)

    @classmethod
    def reference(cls, smoke: bool) -> dict:
        system = cls.system(smoke)
        report = ConsensusChecker(system).check_all(system.model)
        return {
            "verdict": report.verdict.value,
            "states_explored": report.states_explored,
        }

    def items(self):
        while True:
            yield tuple(self.rng.sample(VALUES, len(VALUES)))

    def issue(self, domain, **options):
        system = self.system(self.smoke)
        return ConsensusChecker(system).check_all(
            system.model, value_domain=domain
        )

    def check(self, domain, report):
        golden = self.golden["sweep"][self.size]
        ok = (
            report.verdict.value == golden["verdict"]
            and report.states_explored == golden["states_explored"]
        )
        return report.states_explored, ok

    def systems(self):
        system = self.system(self.smoke)
        return [(system, system.model.initial_states(VALUES))]


class CampaignPar(Workload):
    name = "campaign-par"

    WORKERS = 2
    cores = WORKERS

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 2 if smoke else 3
        self.journals = itertools.count()

    def items(self):
        # One op is a pass over the registry: the protocols' campaigns
        # differ about threefold in cost, so a median over single
        # campaigns would fall between them and jump from run to run.
        while True:
            order = sorted(PROTOCOLS)
            self.rng.shuffle(order)
            yield tuple(order)

    def issue(self, order, workers=WORKERS, pool=None):
        return [self.campaign(protocol, workers, pool) for protocol in order]

    def measured(self, order, speed):
        """A pass of several seconds, sampled for host speed after each
        of its campaigns, so that each campaign is scaled by the speed
        around it and not by that of samples seconds away."""
        op = Op(0.0, 0, True)
        loop = loop_at_reference = 0.0
        for protocol in order:
            start = time.perf_counter()
            gc.collect()
            issued = time.perf_counter()
            result = self.campaign(protocol, self.WORKERS, None)
            seconds = time.perf_counter() - issued
            states, ok = self.check_campaign(protocol, result)
            elapsed = time.perf_counter() - start
            factor = speed.mark()
            op.seconds += seconds
            op.at_reference += seconds * factor
            op.states += states
            op.ok = op.ok and ok
            loop += elapsed
            loop_at_reference += elapsed * factor
        return op, loop, loop_at_reference

    def campaign(self, protocol, workers, pool):
        """One ``repro impossibility --checkpoint`` run of *protocol*."""
        path = self.workdir / f"campaign-{next(self.journals)}.journal"
        journal = CampaignJournal.create(path, checkpoint_interval=1)
        try:
            refutations = refute_candidate(
                PROTOCOLS[protocol](self.n), self.n,
                workers=workers, pool=pool, campaign=journal,
            )
        finally:
            journal.close()
        return refutations, path

    def check(self, order, results):
        states, ok = 0, True
        for protocol, result in zip(order, results):
            explored, matches = self.check_campaign(protocol, result)
            states += explored
            ok = ok and matches
        return states, ok

    def check_campaign(self, protocol, result):
        refutations, path = result
        golden = self.golden["refute"]
        prefix = f"{protocol}/"
        expected = {
            key for key in golden
            if key.startswith(prefix) and key.endswith(f"/n{self.n}")
        }
        got = {
            refute_key(protocol, r.model_name, self.n): verdict_fields(r.report)
            for r in refutations
        }
        ok = set(got) == expected and all(
            got[key] == golden[key] for key in expected
        )
        # The journal must reload to the same completed units.
        state, _ = load_journal(path)
        units = {
            f"refute:{r.model_name}:{r.protocol_name}:n{self.n}": r
            for r in refutations
        }
        ok = ok and set(state.completed) == set(units) and all(
            verdict_fields(state.completed[key]) == verdict_fields(r.report)
            for key, r in units.items()
        )
        path.unlink()
        return sum(r.report.states_explored for r in refutations), ok

    def systems(self):
        pairs = []
        for name in sorted(PROTOCOLS):
            for layering in standard_layerings(
                PROTOCOLS[name](self.n), self.n
            ).values():
                pairs.append((layering, layering.model.initial_states(VALUES)))
        return pairs

    def traced(self, tracer, seconds):
        """Per op: the parallel op (pool numbers, untraced), then its
        sequential replay untraced and traced (layer numbers)."""
        ops: list[Op] = []
        parallel: list[float] = []
        baseline: list[Op] = []
        traced: list[Op] = []
        reports = []
        spent = 0.0
        for order in self.items():
            if traced and spent >= seconds:
                break
            sink: list = []
            op, _ = self.timed(
                order,
                pool=PoolConfig(workers=self.WORKERS, report_sink=sink.append),
            )
            ops.append(op)
            parallel.append(op.seconds)
            reports.extend(sink)
            sequential, _ = self.timed(order, workers=None)
            ops.append(sequential)
            baseline.append(sequential)
            gc.collect()
            with tracing(tracer), tracer.op(len(traced)) as span:
                result = self.issue(order, workers=None)
            states, ok = self.check(order, result)
            traced.append(Op(span.seconds, states, ok))
            ops.append(traced[-1])
            spent += op.seconds + sequential.seconds + span.seconds
        shard_values = [
            outcome.value
            for report in reports
            for outcome in report.outcomes.values()
        ]
        attempted = sum(
            report.states_explored
            for value in shard_values if value is not None
            for report in value
        )
        metrics = {
            "resilience.pool.shards_per_op": ratio(
                sum(len(r.outcomes) for r in reports), len(parallel)
            ),
            "resilience.pool.useful_ratio": ratio(
                sum(op.states for op in baseline), attempted
            ),
            # Each parallel op against the sequential run of the same units.
            "resilience.pool.overhead_ms": statistics.median(
                p - op.seconds for p, op in zip(parallel, baseline)
            ) * 1e3,
            "resilience.wire.result_bytes_per_op": ratio(
                sum(len(wire.dumps(v)) for v in shard_values), len(parallel)
            ),
        }
        return TracedPass(
            ops=ops,
            traced=traced,
            baseline_seconds=statistics.median(op.seconds for op in baseline),
            metrics=metrics,
            values=shard_values,
        )


class ServeN2(Workload):
    name = "serve-n2"

    #: One request in this many is a new job; the rest are repeats.
    NEW_EVERY = 3
    #: New jobs the traced pass replays in-process, pooled and served.
    REPLAY_JOBS = 50
    #: Seconds of the closed loop between two host speed samples.
    SLICE_SECONDS = 1.0
    #: The server's two job slots and the clients keep both cores busy.
    cores = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n = 2
        self.pairs = sorted(
            tuple(key.split("/")[:2])
            for key in self.golden["refute"]
            if key.endswith(f"/n{self.n}")
        )
        self.clients = min(2, len(os.sched_getaffinity(0)))
        self.server: Optional[subprocess.Popen] = None
        self.endpoint: Optional[tuple] = None
        self.server_rss_mb = 0.0

    # -- the server process ----------------------------------------------
    def setup(self):
        self.server, self.endpoint = start_server(self.workdir / "server")

    def teardown(self):
        if self.server is not None:
            self.server_rss_mb = stop_server(self.server, self.endpoint)
            self.server = None

    def peak_rss_mb(self):
        """The server's, or that of a pool worker it reaped if larger."""
        return self.server_rss_mb

    # -- the request plan ---------------------------------------------------
    def plan(self, client: int) -> Iterator[tuple[dict, bool]]:
        """``(job, new)`` pairs: exactly one new job in every block of
        ``NEW_EVERY`` requests, new jobs cycling through all
        (protocol, layering) pairs in shuffled order, so every run of a
        given length has the same mix of work."""
        rng = random.Random(f"{self.seed}:{client}")
        jobs: list[dict] = []
        bag: list = []
        for block in itertools.count():
            new_at = 0 if block == 0 else rng.randrange(self.NEW_EVERY)
            for slot in range(self.NEW_EVERY):
                if slot != new_at:
                    yield rng.choice(jobs), False
                    continue
                if not bag:
                    bag = list(self.pairs)
                    rng.shuffle(bag)
                protocol, model = bag.pop()
                # A unique budget makes a unique fingerprint: a new job.
                job = {
                    "kind": "refute",
                    "protocol": protocol,
                    "model": model,
                    "n": self.n,
                    "max_states": 1_000_000 + self.clients * len(jobs) + client,
                }
                jobs.append(job)
                yield job, True

    def expected(self, job: dict) -> dict:
        return self.golden["refute"][
            refute_key(job["protocol"], job["model"], job["n"])
        ]

    def record_ok(self, job: dict, record) -> bool:
        golden = self.expected(job)
        return isinstance(record, dict) and all(
            record.get(key) == golden[key] for key in GOLDEN_FIELDS
        )

    def check_response(self, job, new, response) -> tuple[int, bool]:
        record = response.get("result")
        ok = (
            response.get("status") == "done"
            and bool(response.get("cached")) != new
            and self.record_ok(job, record)
        )
        return (record["states_explored"] if ok and new else 0), ok

    # -- the closed loop ------------------------------------------------------
    def client_loop(self, client: int, plan: Iterator, deadline: float,
                    out: list, stopped: set) -> None:
        """Closed loop until *deadline*: each request waits for the
        previous verdict.  Appends an :class:`Op` per request.  A request
        that raises, for any reason, is recorded as a failed op and puts
        this client in *stopped*, so a fault cannot drop load unreported."""
        server = ServeClient(*self.endpoint, timeout=60.0)
        while time.perf_counter() < deadline:
            job, new = next(plan)
            kind = "miss" if new else "hit"
            start = time.perf_counter()
            try:
                response = server.submit(job, wait=True)
            except Exception:
                print(f"serve-n2 client {client}: request failed", file=sys.stderr)
                traceback.print_exc()
                out.append(Op(time.perf_counter() - start, 0, False, kind))
                stopped.add(client)
                return
            seconds = time.perf_counter() - start
            states, ok = self.check_response(job, new, response)
            out.append(Op(seconds, states, ok, kind))

    def run(self, seconds, speed, between_ops=None):
        """The closed loop for *seconds*, in slices of ``SLICE_SECONDS``
        with a host speed sample after each: every client finishes its
        request in flight, then the sample runs on an idle server, then
        the clients go on with their plans.  *between_ops* is called
        after each slice."""
        plans = [self.plan(c) for c in range(self.clients)]
        stopped: set = set()
        ops: list[Op] = []
        wall = wall_at_reference = 0.0
        begin = time.perf_counter()
        while not ops or time.perf_counter() - begin < seconds:
            running = [c for c in range(self.clients) if c not in stopped]
            if not running:
                break
            done: list[list[Op]] = [[] for _ in running]
            start = time.perf_counter()
            threads = [
                threading.Thread(
                    target=self.client_loop,
                    args=(c, plans[c], start + self.SLICE_SECONDS, out, stopped),
                )
                for c, out in zip(running, done)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            factor = speed.mark()
            wall += elapsed
            wall_at_reference += elapsed * factor
            for op in itertools.chain.from_iterable(done):
                op.at_reference = op.seconds * factor
                ops.append(op)
            if between_ops is not None:
                between_ops(time.perf_counter() - begin)
        counters = ServeClient(*self.endpoint).stats()["counters"]
        return Measurement(ops, wall, wall_at_reference, {"server": counters})

    # -- probes and the traced replay --------------------------------------
    def systems(self):
        pairs = []
        for protocol, model in self.pairs:
            layering = standard_layerings(PROTOCOLS[protocol](self.n), self.n)[model]
            pairs.append((layering, layering.model.initial_states(VALUES)))
        return pairs

    def replay_jobs(self) -> list[dict]:
        count = 8 if self.smoke else self.REPLAY_JOBS
        new = (job for job, is_new in self.plan(0) if is_new)
        return list(itertools.islice(new, count))

    def traced(self, tracer, seconds):
        """50 of the plan's new jobs, three ways each, one job after the
        other: ``run_job`` in-process, through a two-worker pool, and
        through a fresh server, which then answers them all again from
        its store.  The per-job differences split a miss into engine,
        pool and server parts.  The in-process runs are then traced."""
        jobs = self.replay_jobs()
        payloads = [
            {"job": job, "budget": {"max_states": job["max_states"], "max_seconds": 60.0}}
            for job in jobs
        ]

        def job_op(job, result, seconds) -> Op:
            record = result.get("record")
            ok = bool(result.get("conclusive")) and self.record_ok(job, record)
            return Op(seconds, record["states_explored"] if ok else 0, ok, "miss")

        def served(client, job, new) -> Op:
            start = time.perf_counter()
            response = client.submit(job, wait=True)
            seconds = time.perf_counter() - start
            states, ok = self.check_response(job, new, response)
            return Op(seconds, states, ok, "miss" if new else "hit")

        engine, pooled, misses, results = [], [], [], []
        pool_reports: list = []
        directory = self.workdir / "replay"
        server, endpoint = start_server(directory)
        try:
            client = ServeClient(*endpoint, timeout=60.0)
            for i, (job, payload) in enumerate(zip(jobs, payloads)):
                start = time.perf_counter()
                result = run_job(payload)
                engine.append(job_op(job, result, time.perf_counter() - start))
                results.append(result)
                config = PoolConfig(workers=2, report_sink=pool_reports.append)
                start = time.perf_counter()
                outcome = run_units(run_job, [(i, payload)], config).outcomes[i]
                pooled.append(job_op(
                    job, outcome.value if outcome.ok else {},
                    time.perf_counter() - start,
                ))
                misses.append(served(client, job, True))
            hits = [served(client, job, False) for job in jobs]
            counters = client.stats()["counters"]
        finally:
            stop_server(server, endpoint)
        ledger, _ = load_journal(directory / LEDGER_NAME)
        traced = []
        with tracing(tracer):
            for i, (job, payload) in enumerate(zip(jobs, payloads)):
                with tracer.op(i) as span, tracer.span("serve.run_job"):
                    result = run_job(payload)
                traced.append(job_op(job, result, span.seconds))

        def median_ms(later: list[Op], earlier: list[Op]) -> float:
            return statistics.median(
                a.seconds - b.seconds for a, b in zip(later, earlier)
            ) * 1e3

        pool_values = [
            outcome.value for r in pool_reports for outcome in r.outcomes.values()
        ]
        metrics = {
            "serve.engine_ms": statistics.median(op.seconds for op in engine) * 1e3,
            "serve.server_overhead_ms": median_ms(misses, pooled),
            "serve.store_hits": counters["store_hits"],
            "serve.stored": counters["stored"],
            "serve.errors": counters["errors"],
            "resilience.pool.shards_per_op": ratio(
                sum(len(r.outcomes) for r in pool_reports), len(jobs)
            ),
            "resilience.pool.useful_ratio": ratio(
                sum(op.states for op in engine),
                sum(v.get("cost", 0) for v in pool_values if v is not None),
            ),
            "resilience.pool.overhead_ms": median_ms(pooled, engine),
            "resilience.wire.result_bytes_per_op": ratio(
                sum(len(wire.dumps(v)) for v in pool_values), len(jobs)
            ),
            "resilience.journal.records_per_op": ratio(
                len(ledger.completed), len(misses) + len(hits)
            ),
        }
        return TracedPass(
            ops=engine + pooled + misses + hits + traced,
            traced=traced,
            baseline_seconds=statistics.median(op.seconds for op in engine),
            metrics=metrics,
            values=results,
        )


WORKLOADS = {
    cls.name: cls for cls in (ValencePer3, SweepSt, CampaignPar, ServeN2)
}


# -- the server subprocess ------------------------------------------------

def program_env() -> dict:
    """The environment with the program's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def start_server(directory: Path) -> tuple[subprocess.Popen, tuple]:
    """``repro serve`` with its defaults on a fresh *directory*."""
    directory.mkdir(parents=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(directory)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=program_env(),
    )
    try:
        endpoint = wait_for_endpoint(directory, timeout=30.0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, endpoint


def stop_server(proc: subprocess.Popen, endpoint, timeout: float = 60.0) -> float:
    """Drain through the ``shutdown`` op, killing the server if it has
    not exited within *timeout* seconds.  Returns the largest resident
    set, in MB, of the server and of the pool workers it reaped."""
    try:
        ServeClient(*endpoint, timeout=10.0).shutdown()
    except ServerGone:
        proc.kill()
    deadline = time.monotonic() + timeout
    while True:
        # wait4, unlike Popen.wait, returns the reaped server's rusage.
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024
        if time.monotonic() > deadline:
            proc.kill()
        time.sleep(0.01)
