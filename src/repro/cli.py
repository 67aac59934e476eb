"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro lower-bound --n 3 --t 1
    python -m repro impossibility --model permutation --protocol quorum
    python -m repro solvability --n 3
    python -m repro lemmas --n 3
    python -m repro diameter --n 3 --rounds 2
    python -m repro lint src/repro/protocols examples
    python -m repro lint --protocol quorum --n 3

Each subcommand prints the same tables the benchmark harness saves under
``benchmarks/results/`` — the CLI is the interactive face of the
experiment drivers in :mod:`repro.analysis`.

Resource limits and resumability (the resilience layer):

* ``--max-states`` / ``--timeout`` build one
  :class:`~repro.resilience.budget.Budget` threaded through every analysis the
  subcommand runs; the timeout bounds the *whole command*.
* On budget exhaustion the command prints a one-line diagnostic with the
  exploration statistics and exits with code 2 (*inconclusive* — neither
  verified nor refuted); an actual unexpected verdict exits 1.
* ``--checkpoint PATH`` saves campaign progress when a run stops early
  (budget or Ctrl-C); ``--resume PATH`` picks it up again — completed
  units replay instantly, the interrupted unit continues from its saved
  frontier.  ``lower-bound`` and ``impossibility`` support this;
  the other subcommands accept the flags but run strict analyses whose
  partial results are not checkpointable.
* Checkpoints are written as an append-only **journal**
  (:mod:`repro.resilience.journal`): one small record per finished unit
  (fsync cadence set by ``--checkpoint-interval``, default every unit),
  self-healing on load if a crash tore the final record.  Legacy
  whole-file checkpoints still resume (they are migrated into a journal
  at the write target).
* Ctrl-C and SIGTERM exit with code 130, after writing the checkpoint
  if requested.
* ``repro chaos -- <subcommand ...>`` turns the crash tolerance on
  itself: it kills a fresh run at every reachable crashpoint
  (``kill -9`` mid-append, mid-rename, mid-merge, ...), resumes from
  disk, and requires stdout byte-identical to an uninterrupted run.

Parallel execution (``lower-bound``, ``impossibility``, ``solvability``):

* ``--workers N`` shards the campaign units across ``N`` fault-isolated
  worker processes with a deterministic merge — tables are identical to
  the sequential run; a unit whose worker crashes repeatedly is reported
  inconclusive (quarantined) instead of aborting the sweep.
* ``--unit-timeout SECONDS`` kills and retries a unit that hangs;
  ``--max-retries K`` bounds the retries before quarantine.
* With ``--checkpoint``, completed units are saved as workers finish,
  so an interruption loses at most the in-flight units.

Memoization (:mod:`repro.core.cache`):

* ``--cache`` (the default) wraps each verification unit's system in a
  :class:`~repro.core.cache.CachedSystem`, memoizing successor, failure
  and decision queries with hash-consed states; ``--no-cache`` disables
  it.  Verdicts and witnesses are identical either way — the cache only
  changes wall-clock time.
* Sequential runs end with a one-line ``cache:`` summary on stderr
  (hits, misses, interned states, rough byte footprint).

Static analysis (:mod:`repro.lint`):

* ``repro lint`` runs replint from the command line: positional paths
  are statically linted (``RP1xx``/``RP3xx`` AST rules), ``--protocol``
  contract-preflights a concrete protocol across its standard layered
  models (``RP2xx`` rules, each violation with a concrete witness edge).
  ``--select``/``--ignore`` filter rule codes, ``--list-rules`` prints
  the registry.  Exit codes: 0 clean, 1 findings, 2 internal error.
* Every experiment subcommand checks its systems' contracts (an
  ill-formed system is diagnosed instead of producing garbage
  verdicts): the consensus and task checkers inside their search, the
  explorers by a bounded probe before exploring; ``--no-preflight`` runs
  the bare engines.

Diagnostics go through the shared :mod:`repro.log` logger: ``-q`` keeps
only warnings, ``-v`` adds per-attempt worker-pool detail.  Results
(tables, verdicts, lint findings) are printed to stdout either way.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.analysis.reports import render_table, render_verdict_rows
from repro.core.cache import aggregate_stats
from repro.core.contracts import IllFormedSystemError
from repro.core.valence import ExplorationLimitExceeded
from repro.exitcodes import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SERVER_UNREACHABLE,
    EXIT_UNEXPECTED,
)
from repro.log import configure as configure_logging
from repro.log import get_logger
from repro.protocols.registry import PROTOCOLS
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatch,
    load_checkpoint,
)
from repro.resilience.journal import CampaignJournal, is_journal
from repro.resilience.pool import pool_config_for

log = get_logger("cli")


def _save_campaign(args: argparse.Namespace) -> None:
    """Make the campaign journal durable, if ``--checkpoint`` started one.

    The journal already appended every record as it happened; only what
    is buffered remains.  A failure becomes a diagnostic, not a
    traceback: the run already has a result to report.
    """
    if args.campaign is None:
        return
    try:
        args.campaign.sync()
    except OSError as exc:
        log.warning("cannot sync checkpoint journal: %s", exc)
        return
    log.info("checkpoint journal synced to %s", args.checkpoint)


def _log_cache_stats(args: argparse.Namespace) -> None:
    """One INFO line summarizing memoization-cache effectiveness.

    Aggregates every cache created in *this* process
    (:func:`repro.core.cache.aggregate_stats`); with ``--workers`` the
    per-unit caches live and die inside the worker processes, so a
    parallel run legitimately reports nothing here.  Emitted through
    :mod:`repro.log` so ``-q`` silences it and machine-readable output
    stays clean.
    """
    if not getattr(args, "cache", True):
        return
    stats = aggregate_stats()
    if stats.hits or stats.misses:
        log.info("cache: %s", stats.describe())


def _finish_inconclusive(args: argparse.Namespace, report) -> int:
    """Shared tail for a budget-exhausted (or interrupted) campaign unit:
    one-line diagnostic, optional checkpoint, distinct exit code."""
    stats = report.budget_stats
    line = "inconclusive: " + (
        stats.describe() if stats is not None else report.detail
    )
    log.warning("%s", line)
    log.warning(
        "hint: raise --max-states and/or --timeout, or pass "
        "--checkpoint/--resume to split the run"
    )
    _save_campaign(args)
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_INCONCLUSIVE


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    from repro.analysis.sync_lower_bound import (
        defeat_fast_candidates,
        verify_tight_protocols,
    )

    print(f"== Corollary 6.3: the t+1 crossover (n={args.n}, t={args.t}) ==\n")
    defeated = defeat_fast_candidates(
        args.n,
        args.t,
        args.budget,
        campaign=args.campaign,
        workers=args.workers,
        pool=args.pool,
        cache=args.cache,
        preflight=args.preflight,
        shard_states=args.shard_states,
    )
    verified = []
    if not any(r.inconclusive for r in defeated):
        verified = verify_tight_protocols(
            args.n,
            args.t,
            args.budget,
            include_full_model=args.full_model,
            campaign=args.campaign,
            workers=args.workers,
            pool=args.pool,
            cache=args.cache,
            preflight=args.preflight,
            shard_states=args.shard_states,
        )
    rows = defeated + verified
    print(render_verdict_rows(rows))
    stopped = next((r for r in rows if r.inconclusive), None)
    if stopped is not None:
        return _finish_inconclusive(args, stopped.report)
    _save_campaign(args)
    ok = all(r.defeated for r in defeated) and all(
        r.report.satisfied for r in verified
    )
    print(
        "\ncrossover holds" if ok else "\nUNEXPECTED: crossover violated!"
    )
    return EXIT_OK if ok else EXIT_UNEXPECTED


def _cmd_impossibility(args: argparse.Namespace) -> int:
    from repro.analysis.impossibility import (
        refute_candidate,
        standard_layerings,
    )

    protocol = PROTOCOLS[args.protocol](args.n)
    print(
        f"== Theorem 4.2 on {protocol.name()} (n={args.n}) ==\n"
    )
    refutations = refute_candidate(
        protocol,
        args.n,
        args.budget,
        campaign=args.campaign,
        workers=args.workers,
        pool=args.pool,
        cache=args.cache,
        preflight=args.preflight,
        shard_states=args.shard_states,
    )
    if args.model != "all":
        refutations = [
            r for r in refutations if r.model_name == args.model
        ]
        if not refutations:
            names = sorted(standard_layerings(protocol, args.n))
            print(f"unknown model {args.model!r}; choose from {names}")
            return EXIT_INCONCLUSIVE
    rows = [
        [
            r.model_name,
            r.verdict.value,
            r.report.inputs,
            r.report.execution.length if r.report.execution else None,
            r.report.states_explored,
        ]
        for r in refutations
    ]
    print(
        render_table(
            ["model", "verdict", "inputs", "schedule", "states"], rows
        )
    )
    stopped = next((r for r in refutations if r.inconclusive), None)
    if stopped is not None:
        return _finish_inconclusive(args, stopped.report)
    _save_campaign(args)
    satisfied = [r for r in refutations if r.report.satisfied]
    if satisfied:
        print("\nUNEXPECTED: a candidate was verified — Theorem 4.2 violated!")
        return EXIT_UNEXPECTED
    print("\nno candidate survives any layered model — as the theorem says")
    return EXIT_OK


def _cmd_solvability(args: argparse.Namespace) -> int:
    from repro.analysis.solvability_experiments import solvability_matrix
    from repro.tasks.catalog import EXPECTED_SOLVABLE

    tasks = args.tasks.split(",") if args.tasks else None
    print(f"== Corollary 7.3: solvability matrix (n={args.n}) ==\n")
    matrix = solvability_matrix(
        n=args.n,
        tasks=tasks,
        max_states=args.budget,
        workers=args.workers,
        pool=args.pool,
        cache=args.cache,
        preflight=args.preflight,
    )
    rows = []
    ok = True
    for name, entry in matrix.items():
        ok = ok and entry.matches_expectation
        if entry.row is None:
            rows.append(
                [name, f"error: {entry.error}", EXPECTED_SOLVABLE[name],
                 None, False]
            )
            continue
        rows.append(
            [
                name,
                entry.row.thick_connected,
                EXPECTED_SOLVABLE[name],
                entry.row.operationally_solved,
                entry.matches_expectation,
            ]
        )
    print(
        render_table(
            ["task", "1-thick-conn", "expected", "solver-ok", "consistent"],
            rows,
        )
    )
    return EXIT_OK if ok else EXIT_UNEXPECTED


def _cmd_lemmas(args: argparse.Namespace) -> int:
    from repro.analysis.lemmas import lemma_3_6_report, lemma_5_1
    from repro.core.valence import ValenceAnalyzer
    from repro.layerings.s1_mobile import S1MobileLayering, similarity_chain
    from repro.models.mobile import MobileModel
    from repro.protocols.floodset import FloodSet

    layering = S1MobileLayering(MobileModel(FloodSet(2), args.n))
    # Strict: the lemma walks act on valence verdicts, so a truncated
    # valence must abort (caught at top level as inconclusive).
    analyzer = ValenceAnalyzer(
        layering, args.budget, strict=True, cache=args.cache
    )
    initials = layering.model.initial_states((0, 1))
    print(f"== Executable lemmas over S_1/M^mf (n={args.n}) ==\n")
    reports = [lemma_3_6_report(layering, analyzer, initials)]
    state = reports[0].witnesses.get("bivalent_initial")
    if state is not None:
        reports.append(
            lemma_5_1(
                layering, analyzer, state, similarity_chain(layering, state)
            )
        )
    rows = [[r.lemma, r.holds, r.detail] for r in reports]
    print(render_table(["lemma", "holds", "detail"], rows))
    return EXIT_OK if all(r.holds for r in reports) else EXIT_UNEXPECTED


def _cmd_diameter(args: argparse.Namespace) -> int:
    from repro.analysis.solvability_experiments import diameter_table
    from repro.core.cache import resolve_cache
    from repro.layerings.s1_mobile import S1MobileLayering
    from repro.models.mobile import MobileModel
    from repro.protocols.floodset import FloodSet

    layering = resolve_cache(
        S1MobileLayering(MobileModel(FloodSet(args.rounds + 1), args.n)),
        args.cache,
    )
    initials = layering.model.initial_states((0, 1))
    print(
        f"== Lemma 7.6: measured s-diameters (n={args.n}, "
        f"{args.rounds} rounds) ==\n"
    )
    table = diameter_table(
        layering, initials, args.rounds, max_states=args.budget
    )
    rows = []
    stopped_by_budget = False
    for row in table:
        if "note" in row:
            rows.append([row["round"], row["note"], None, None, None])
            stopped_by_budget = stopped_by_budget or (
                "budget exhausted" in row["note"]
            )
            continue
        rows.append(
            [
                row["round"],
                row["set_size"],
                row["d_X"],
                row["d_S(X)"],
                row["bound"],
            ]
        )
    print(render_table(["round", "|X|", "d_X", "d_S(X)", "bound"], rows))
    if stopped_by_budget:
        log.warning(
            "inconclusive: the diameter walk stopped early; raise "
            "--max-states and/or --timeout"
        )
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run replint's static, contract and deep engines.

    Exit codes follow lint convention, not the experiment convention:
    0 every target is clean, 1 findings were reported, 2 the analysis
    itself failed (unknown rule code, unreadable path, internal error).

    ``--deep`` adds the interprocedural RP4xx/RP5xx pass on top of the
    static rules; explicitly ``--select``-ing a deep code without
    ``--deep`` is an error (exit 2), not a silent clean pass — the whole
    point of a gate is that silence means checked.
    """
    import dataclasses

    from repro.lint import LintError, lint_paths, preflight_system
    from repro.lint.engine import flow_codes, resolve_codes, rule_table

    try:
        if args.list_rules:
            print(
                render_table(
                    ["code", "engine", "rule"],
                    [list(row) for row in rule_table()],
                )
            )
            return EXIT_OK
        select = args.select.split(",") if args.select else None
        ignore = args.ignore.split(",") if args.ignore else None
        codes = resolve_codes(select, ignore)
        deep_codes = flow_codes()
        if select is not None and not args.deep:
            requested_deep = sorted(codes & deep_codes)
            if requested_deep:
                raise LintError(
                    f"rule(s) {', '.join(requested_deep)} need the "
                    "interprocedural pass: re-run with --deep"
                )
        if not args.paths and not args.protocol:
            log.error(
                "nothing to lint: pass paths, --protocol, or --list-rules"
            )
            return EXIT_INCONCLUSIVE
        if args.deep and not args.paths:
            raise LintError(
                "--deep analyzes source trees: pass at least one path"
            )
        findings = []
        if args.paths:
            findings.extend(lint_paths(args.paths, select, ignore))
            if args.deep:
                from repro.lint.flow import deep_lint_paths

                findings.extend(
                    deep_lint_paths(args.paths, codes & deep_codes)
                )
        if args.protocol:
            from repro.analysis.impossibility import standard_layerings

            protocol = PROTOCOLS[args.protocol](args.n)
            layerings = standard_layerings(protocol, args.n)
            if args.model != "all":
                if args.model not in layerings:
                    log.error(
                        "unknown model %r; choose from %s",
                        args.model,
                        sorted(layerings),
                    )
                    return EXIT_INCONCLUSIVE
                layerings = {args.model: layerings[args.model]}
            for name, layering in sorted(layerings.items()):
                roots = layering.model.initial_states((0, 1))
                report = preflight_system(layering, roots, codes=codes)
                log.debug(
                    "preflight %s: %s", name, report.describe()
                )
                findings.extend(
                    dataclasses.replace(f, path=f"<{name}>")
                    for f in report.findings
                )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        suppressed = 0
        unused_baseline: list = []
        if args.write_baseline:
            if not args.baseline:
                raise LintError("--write-baseline needs --baseline PATH")
            from repro.lint.output import write_baseline

            write_baseline(args.baseline, findings)
            log.info(
                "baseline written: %d suppression(s) -> %s",
                len(findings),
                args.baseline,
            )
            return EXIT_OK
        if args.baseline:
            from repro.lint.output import apply_baseline, load_baseline

            findings, suppressed, unused_baseline = apply_baseline(
                findings, load_baseline(args.baseline)
            )
    except LintError as exc:
        log.error("lint error: %s", exc)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # internal failure, not a finding
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        return EXIT_INCONCLUSIVE
    if args.format == "json":
        from repro.lint.output import findings_to_json

        print(
            findings_to_json(findings, suppressed, unused_baseline), end=""
        )
    else:
        for finding in findings:
            print(finding.format())
    if suppressed:
        log.info("%d finding(s) suppressed by baseline", suppressed)
    for entry in unused_baseline:
        log.warning(
            "unused baseline entry: %s %s (%s) — prune it",
            entry.code,
            entry.path,
            entry.symbol,
        )
    if findings:
        log.info(
            "%d finding(s) across %d rule code(s)",
            len(findings),
            len({f.code for f in findings}),
        )
        return EXIT_UNEXPECTED
    log.info("clean: no findings")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the verification job server until drained.

    Listens on newline-delimited JSON over TCP, executes jobs on the
    fault-isolated pool, and persists acceptance/completion in a ledger
    journal plus a content-addressed verdict store under ``--dir`` so a
    ``kill -9`` loses nothing acknowledged.  SIGTERM/Ctrl-C drain
    gracefully and exit 130; a client ``shutdown`` op exits 0.
    """
    from repro.serve.server import ServeConfig, run_serve

    config = ServeConfig(
        dir=args.dir,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        concurrency=args.concurrency,
        isolation=args.isolation,
        job_timeout=args.job_timeout,
        default_max_states=args.default_max_states,
        drain_grace=args.drain_grace,
        tenant_max_states=args.tenant_max_states,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        heartbeat_interval=args.heartbeat_interval,
        write_timeout=args.write_timeout,
        idle_timeout=args.idle_timeout,
        store_retain=args.store_retain,
    )
    return run_serve(config)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: kill a target at every reachable crashpoint.

    The default target is the campaign argv after ``--``: kill a fresh
    run at each selected (point, hit, mode), resume it from the on-disk
    checkpoint, and require stdout byte-identical to an uninterrupted
    baseline.  ``--serve`` kills the job server instead and requires,
    after a restart, that no acknowledged job is lost, none runs twice,
    and stored verdicts byte-match an uninterrupted cycle.  ``--net``
    wraps a server in the fault-injecting proxy, sweeps every fault
    class x protocol phase, and holds each cell to the same store
    contract plus dedupe-answered resubmission.

    Exit 0: every cycle held; 1: some cycle broke the contract; 2:
    nothing tested or a usage error; EX_UNAVAILABLE (69): the ``--net``
    clean-network baseline never served.
    """
    from repro.resilience.chaos import CampaignTarget, ChaosSweep, chaos_sweep
    from repro.serve.chaos import ServerTarget, default_battery
    from repro.serve.netchaos import NetChaosSweep, netchaos_sweep

    def progress(result) -> None:
        log.info("chaos %s", result.describe())

    sweep: ChaosSweep | NetChaosSweep
    target: CampaignTarget | ServerTarget

    try:
        if args.net:
            sweep = netchaos_sweep(
                battery=default_battery(args.jobs),
                workdir=args.workdir,
                faults=args.net_faults.split(",") if args.net_faults else None,
                phases=args.net_phases.split(",") if args.net_phases else None,
                seed=args.seed,
                run_timeout=args.run_timeout,
                on_result=progress,
            )
            title = "Network chaos sweep over `repro serve`"
            cycle = "fault cell"
            promise = (
                "held the contract: none lost, none duplicated, stores "
                "byte-identical, resubmission deduped"
            )
            headers = ["fault", "phase", "completed", "consistent",
                       "deduped", "injected", "reconnects", "detail"]
            rows = [
                [r.fault, r.phase, r.completed, r.consistent, r.deduped,
                 r.injected, r.reconnects, r.detail]
                for r in sweep.results
            ]
        else:
            if args.serve:
                target = ServerTarget(
                    default_battery(args.jobs), args.run_timeout,
                    args.serve_isolation,
                )
                title = "Chaos sweep over `repro serve`"
                promise = (
                    "recovered: none lost, none duplicated, stored "
                    "verdicts byte-identical"
                )
            else:
                argv = list(args.argv)
                if argv and argv[0] == "--":
                    argv = argv[1:]
                if not argv:
                    log.error(
                        "chaos: pass the campaign argv after --, e.g. "
                        "repro chaos -- impossibility --protocol quorum "
                        "--n 3"
                    )
                    return EXIT_INCONCLUSIVE
                target = CampaignTarget(argv, args.run_timeout)
                title = f"Chaos sweep over `repro {' '.join(argv)}`"
                promise = "reproduced the baseline byte-for-byte"
            sweep = chaos_sweep(
                target,
                workdir=args.workdir,
                modes=tuple(m for m in args.modes.split(",") if m),
                max_hits_per_point=args.max_hits,
                points=args.points.split(",") if args.points else None,
                seed=args.seed,
                on_result=progress,
            )
            cycle = f"{target.cycle} cycle"
            headers = ["crashpoint", "hit", "mode", "killed",
                       *target.columns, "detail"]
            rows = [
                [r.point, r.hit, r.mode, r.killed, r.recovered, r.matched,
                 r.detail]
                for r in sweep.results
            ]
    except ValueError as exc:
        log.error("chaos: %s", exc)
        return EXIT_INCONCLUSIVE
    print(f"== {title} ==\n")
    print(render_table(headers, rows))
    print("\n" + sweep.describe())
    if getattr(sweep, "error", ""):
        print("UNAVAILABLE: the clean-network baseline never served")
        return EXIT_SERVER_UNREACHABLE
    if not sweep.results:
        log.warning("no %s ran — nothing tested", cycle)
        return EXIT_INCONCLUSIVE
    if sweep.ok:
        print(f"every {cycle} {promise}")
        return EXIT_OK
    print(f"UNEXPECTED: not every {cycle} {promise}!")
    return EXIT_UNEXPECTED


def _add_budget_flags(parser, suppress: bool = False) -> None:
    """The four resilience flags, accepted before or after the subcommand.

    On subparsers the defaults are suppressed so an absent flag does not
    clobber a value already parsed from the top-level position.
    """
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument(
        "--max-states",
        type=int,
        default=default(1_000_000),
        help="exploration budget per analysis (state count)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=default(None),
        metavar="SECONDS",
        help="wall-clock budget for the whole command",
    )
    parser.add_argument(
        "--checkpoint",
        default=default(None),
        metavar="PATH",
        help="write campaign progress here when the run stops early",
    )
    parser.add_argument(
        "--resume",
        default=default(None),
        metavar="PATH",
        help="resume a campaign previously saved with --checkpoint",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=default(1),
        metavar="N",
        help="fsync the checkpoint journal every N completed units "
        "(1 = every unit is durable the moment it finishes)",
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=default(64),
        metavar="N",
        help="rewrite the checkpoint journal as one base snapshot once "
        "N incremental records accumulate",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default(None),
        metavar="N",
        help="run campaign units on N fault-isolated worker processes "
        "(deterministic merge; crashes quarantined, not fatal)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=default(None),
        metavar="SECONDS",
        help="kill and retry a parallel unit running longer than this",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=default(None),
        metavar="K",
        help="retries before a crashing parallel unit is quarantined",
    )
    parser.add_argument(
        "--shard-states",
        type=int,
        default=default(None),
        metavar="N",
        help="root states (input assignments) per parallel shard; "
        "smaller shards steal better, the merged verdict is identical "
        "for any value (default 1)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=default(True),
        help="memoize successor/failure/decision queries per verification "
        "unit (verdicts are identical either way; --no-cache disables)",
    )
    parser.add_argument(
        "--preflight",
        action=argparse.BooleanOptionalAction,
        default=default(True),
        help="check each system's contracts while exploring, diagnosing "
        "ill-formed protocols instead of reporting garbage verdicts "
        "(--no-preflight runs the bare engines)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=default(0),
        help="more diagnostics on stderr (per-attempt pool detail)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=default(0),
        help="fewer diagnostics on stderr (warnings only)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro`` (module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable layered analysis of consensus "
        "(Moses & Rajsbaum, PODC 1998)",
        # No prefix abbreviation: with both --no-cache and --no-preflight
        # registered, an abbreviated top-level option like --n (which the
        # subcommands define exactly) would be rejected as ambiguous
        # during argparse's classification pass, before the subparser
        # ever sees it.
        allow_abbrev=False,
    )
    _add_budget_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lower-bound", help="the t+1-round crossover")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--full-model", action="store_true")
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("impossibility", help="defeat a candidate everywhere")
    p.add_argument("--n", type=int, default=3)
    p.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="quorum"
    )
    p.add_argument("--model", default="all")
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_impossibility)

    p = sub.add_parser("solvability", help="the Section 7 matrix")
    p.add_argument("--n", type=int, default=3)
    p.add_argument(
        "--tasks", default="consensus,identity,constant,leader-election"
    )
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_solvability)

    p = sub.add_parser("lemmas", help="executable lemma reports")
    p.add_argument("--n", type=int, default=3)
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("diameter", help="s-diameter growth vs the bound")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--rounds", type=int, default=2)
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser(
        "chaos",
        help="kill -9/resume sweep over every reachable crashpoint",
        description="Run a campaign to a baseline, then kill a fresh run "
        "at each reachable crashpoint, resume it from the checkpoint "
        "journal, and require byte-identical stdout.  Pass the campaign "
        "argv after --, e.g.: repro chaos -- impossibility --protocol "
        "quorum --n 3",
    )
    p.add_argument(
        "argv",
        nargs=argparse.REMAINDER,
        help="the repro subcommand argv to torture (after --)",
    )
    p.add_argument(
        "--modes",
        default="kill",
        metavar="M[,M]",
        help="fault modes to inject: kill (SIGKILL), exit, raise",
    )
    p.add_argument(
        "--max-hits",
        type=int,
        default=3,
        metavar="K",
        help="hits picked per crashpoint, K >= 1 (seeded; the first and "
        "last hits are always taken, so K=1 kills at up to two positions)",
    )
    p.add_argument(
        "--points",
        default=None,
        metavar="NAMES",
        help="comma-separated crashpoint names (default: all reachable)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--run-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="wall-clock bound per campaign subprocess",
    )
    p.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="directory for checkpoints/traces (default: temporary)",
    )
    p.add_argument(
        "--serve",
        action="store_true",
        help="torture the job server instead of a campaign argv: kill "
        "it at every server crashpoint, restart, and require no job "
        "lost, none duplicated, stored verdicts byte-identical",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=5,
        metavar="J",
        help="battery size for --serve cycles",
    )
    p.add_argument(
        "--serve-isolation",
        action="store_true",
        help="run the server under test with pool process isolation "
        "(slower cycles; durability results are identical)",
    )
    p.add_argument(
        "--net",
        action="store_true",
        help="torture the wire instead of the disk: wrap the server in "
        "the fault-injecting proxy, sweep every fault class x protocol "
        "phase, and require no job lost, none duplicated, stores "
        "byte-identical to a clean network, resubmission deduped",
    )
    p.add_argument(
        "--net-faults",
        default=None,
        metavar="K[,K]",
        help="restrict --net to these fault kinds (latency, drop, "
        "reset, truncate, loris, partition; default: all)",
    )
    p.add_argument(
        "--net-phases",
        default=None,
        metavar="P[,P]",
        help="restrict --net to these protocol phases (connect, "
        "request, response, stream; default: all)",
    )
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="the crash-safe verification job server",
        description="Serve verification jobs over newline-delimited "
        "JSON/TCP with bounded admission, per-job deadlines, per-tenant "
        "quotas, fingerprint dedupe, a durable verdict store, and "
        "graceful SIGTERM drain (exit 130).  State lives under --dir "
        "and survives kill -9.",
    )
    p.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="state directory (ledger journal, verdict store, endpoint)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = pick one; the choice lands in DIR/endpoint)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="max accepted-but-unfinished jobs before shedding",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=2,
        metavar="N",
        help="jobs executed at once",
    )
    p.add_argument(
        "--isolation",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run each job in a pool worker process "
        "(--no-isolation executes in-process; faster, no crash isolation)",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-job deadline from acceptance to verdict",
    )
    p.add_argument(
        "--default-max-states",
        type=int,
        default=200_000,
        metavar="N",
        help="exploration budget for jobs that do not set max_states",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long a drain waits for in-flight jobs before exiting "
        "(unfinished jobs resume from the ledger on restart)",
    )
    p.add_argument(
        "--tenant-max-states",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant explored-state quota (default: unlimited)",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="K",
        help="consecutive quarantines that trip the circuit breaker",
    )
    p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a tripped breaker sheds before probing again",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="hb keepalive cadence on idle stream subscriptions",
    )
    p.add_argument(
        "--write-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="reap a connection whose send buffer stays full this long "
        "(slow-loris / half-open clients; never counted by the breaker)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="reap a connection silent this long between requests",
    )
    p.add_argument(
        "--store-retain",
        type=int,
        default=None,
        metavar="N",
        help="GC the verdict store down to the newest N records after "
        "completions (default: keep everything)",
    )
    _add_budget_flags(p, suppress=True)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="replint: static protocol lint + contract preflight",
        description="Run the static AST rules over source paths and/or "
        "the dynamic contract preflight over a concrete protocol's "
        "standard layered models.  Exit 0 clean, 1 findings, 2 internal "
        "error.",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint statically (recursive)",
    )
    p.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule code and exit",
    )
    p.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural RP4xx/RP5xx pass (call graph "
        "+ effect summaries) over the given paths",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output: human text lines (default) or a "
        "versioned JSON report with witness chains",
    )
    p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppress findings recorded in this baseline file; only "
        "findings beyond it gate (exit 1)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings: write them to --baseline "
        "PATH and exit 0",
    )
    p.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default=None,
        help="contract-preflight this protocol across the standard "
        "layered models",
    )
    p.add_argument(
        "--model",
        default="all",
        help="restrict --protocol preflight to one layered model",
    )
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    args.budget = Budget(
        max_states=args.max_states, max_seconds=args.timeout
    )
    args.pool = pool_config_for(
        args.workers, args.unit_timeout, args.max_retries
    )
    args.campaign = None
    if args.resume:
        target = args.checkpoint or args.resume
        try:
            try:
                empty = os.path.getsize(args.resume) == 0
            except OSError as exc:
                log.warning("cannot resume: %s", exc)
                return EXIT_INCONCLUSIVE
            if empty:
                # A zero-byte file is the signature of dying between
                # creating the checkpoint and committing any bytes —
                # nothing was saved, so a fresh start *is* the resume.
                log.warning(
                    "%s is empty (the previous run died before saving "
                    "anything); starting the campaign from scratch",
                    args.resume,
                )
                args.campaign = CampaignJournal.create(
                    target,
                    checkpoint_interval=args.checkpoint_interval,
                    compact_every=args.compact_every,
                )
            elif is_journal(args.resume) and target == args.resume:
                args.campaign = CampaignJournal.resume(
                    target,
                    checkpoint_interval=args.checkpoint_interval,
                    compact_every=args.compact_every,
                )
                info = args.campaign.load_info
                if info is not None and info.healed:
                    log.warning(
                        "journal %s had a torn tail (%d byte(s)) — "
                        "healed, replaying from the last intact record",
                        args.resume,
                        info.healed_bytes,
                    )
            else:
                # Legacy whole-file checkpoint (or journal copied to a
                # new target path): load it, then migrate the campaign
                # into a fresh journal at the write target.
                loaded = load_checkpoint(args.resume)
                if not isinstance(loaded, CampaignCheckpoint):
                    log.warning(
                        "cannot resume: %s holds a %s, not a campaign "
                        "checkpoint",
                        args.resume,
                        type(loaded).__name__,
                    )
                    return EXIT_INCONCLUSIVE
                args.campaign = CampaignJournal.adopt(
                    target,
                    loaded,
                    checkpoint_interval=args.checkpoint_interval,
                    compact_every=args.compact_every,
                )
        except (OSError, CheckpointMismatch) as exc:
            log.warning("cannot resume: %s", exc)
            return EXIT_INCONCLUSIVE
        args.checkpoint = target
    elif args.checkpoint:
        try:
            args.campaign = CampaignJournal.create(
                args.checkpoint,
                checkpoint_interval=args.checkpoint_interval,
                compact_every=args.compact_every,
            )
        except OSError as exc:
            # An unwritable journal must not block the analysis itself:
            # run without a campaign.
            log.warning(
                "cannot write checkpoint: %s; running without one", exc
            )

    def _sigterm(signum, frame):
        # Funnel SIGTERM through the KeyboardInterrupt path so a polite
        # kill gets the same write-checkpoint-and-exit-130 treatment as
        # Ctrl-C (process supervisors send SIGTERM first).
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        # Not the main thread (embedding callers) — Ctrl-C still works.
        previous_sigterm = None
    try:
        code = args.func(args)
        _log_cache_stats(args)
        return code
    except IllFormedSystemError as exc:
        log.warning("ill-formed system: %s", exc)
        log.warning(
            "hint: run `repro lint` for the full diagnosis, or pass "
            "--no-preflight to explore anyway"
        )
        return EXIT_INCONCLUSIVE
    except ExplorationLimitExceeded as exc:
        log.warning("inconclusive: %s", exc)
        log.warning("hint: raise --max-states and/or --timeout")
        return EXIT_INCONCLUSIVE
    except CheckpointMismatch as exc:
        log.warning("checkpoint mismatch: %s", exc)
        return EXIT_INCONCLUSIVE
    except KeyboardInterrupt:
        log.warning("interrupted")
        _save_campaign(args)
        return EXIT_INTERRUPTED
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        if args.campaign is not None:
            try:
                args.campaign.close()
            except OSError:
                pass


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    sys.exit(main())
