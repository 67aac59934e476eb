"""The pooled sweep scheduler and the campaign engine behind ``workers=N``.

A parallel ``check_all`` and a parallel campaign run the same way: each
sweep's :class:`~repro.core.checker._SweepPlan` is split into shards
(index spans), and the shards of all sweeps share one fault-isolated
pool (:mod:`repro.resilience.pool`).  ``check_all(workers=N)`` is a
campaign of one sweep: it imports this module only on that path, so the
engine loads no pool until a run asks for workers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.checker import ConsensusChecker, ConsensusReport, _SweepPlan
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import CheckAllCheckpoint
from repro.resilience.crashpoint import crashpoint
from repro.resilience.pool import PoolConfig, UnitOutcome, run_units, with_workers


def _sweep_shard(payload, context: dict) -> list:
    """Pool unit: one shard ``(key, lo, hi, inner)`` of one sweep.

    *context* maps each sweep key to its checker, model, assignments and
    first assignment.  It ships to each worker **once** via
    ``run_units(..., context=...)``, never per shard, so every shard of a
    sweep that lands on a worker shares one checker and one warm
    successor cache (a ``CachedSystem`` pickles only its configuration,
    so caches never cross processes).  Sharing one checker across shards
    is sound because cache transparency guarantees verdicts, witnesses
    and checkpoints are byte-identical cached or uncached, warm or cold.
    """
    key, lo, hi, inner = payload
    checker, model, assignments, start = context[key]
    return checker._check_span(model, assignments, lo, hi, inner, start)


def run_sweeps(
    plans: dict,
    pool: Optional[PoolConfig],
    workers: int,
    on_decided=None,
) -> None:
    """Run the shards of the ``{key: _SweepPlan}`` sweeps on one pool of
    *workers* processes (*pool*'s other settings, default
    :class:`~repro.resilience.pool.PoolConfig`).

    Shards are dispatched breadth-first — every sweep's first shard before
    any sweep's second — so idle workers open new sweeps rather than
    reading deeper into one that its first violation may already have
    decided.  A sweep is merged the moment its verdict is decided: its
    plan's report is set, ``on_decided(key, report)`` is called (at once
    for a sweep resumed past its last assignment), and its remaining
    shards are withdrawn from the pool: unstarted ones are dropped and
    running ones stopped.  Pool unit keys are ``(key, lo)``.
    """
    ranked = []
    for key, plan in plans.items():
        if plan.report is not None and on_decided is not None:
            on_decided(key, plan.report)
        for index, span in enumerate(plan.spans):
            ranked.append((index, ((key, span[0]), (key, *span))))
    if not ranked:
        return
    ranked.sort(key=lambda entry: entry[0])  # stable: sweep order breaks ties

    def decide(outcome: UnitOutcome) -> Optional[list]:
        key, lo = outcome.key
        plan = plans[key]
        unread = plan.offer(
            lo, outcome.value, outcome.cause() if outcome.quarantined else ""
        )
        if unread is None:
            return None
        if on_decided is not None:
            on_decided(key, plan.report)
        return [(key, start) for start in unread]

    context = {
        key: (p.checker, p.model, p.assignments, p.start)
        for key, p in plans.items()
    }
    run_units(
        _sweep_shard,
        [unit for _, unit in ranked],
        with_workers(pool, workers),
        on_complete=decide,
        context=context,
    )


@dataclass(frozen=True)
class SweepUnit:
    """One campaign unit: a full ``check_all`` over one layered system.

    *system* and *model* are usually ``layering`` and ``layering.model``
    but may coincide (the full synchronous model checks itself).
    *resume* carries the in-flight
    :class:`~repro.resilience.checkpoint.CheckAllCheckpoint` when a
    campaign is resumed.  *cache* is the checker's ``cache=`` spec; a
    ``CachedSystem`` passed here (or as *system*) ships only its
    configuration across the process boundary, so each pool worker warms
    one private cache per unit — preserving the deterministic merge.
    """

    system: object
    model: object
    budget: Budget
    resume: Optional[CheckAllCheckpoint] = None
    cache: object = None
    preflight: bool = True

    def checker(self) -> ConsensusChecker:
        """The checker this unit's sweep runs on."""
        return ConsensusChecker(
            self.system, self.budget, cache=self.cache,
            preflight=self.preflight,
        )


def run_campaign(
    units: Sequence[tuple],
    campaign=None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    shard_states: Optional[int] = None,
) -> list[tuple]:
    """Run ``(key, SweepUnit)`` campaign units with shared resilience
    semantics; the engine behind the analysis drivers' ``workers=N``.

    Sequentially (``workers`` None or <= 1) units run one at a time in
    submission order, stopping after the first inconclusive report —
    continuing a sweep whose budget already tripped would be futile.
    With ``workers > 1`` every pending sweep's root frontier is split
    into shards of ``shard_states`` input assignments (default 1) and
    the shards — not the whole sweeps — are scheduled across the
    fault-isolated pool (:mod:`repro.resilience.pool`), so a campaign of
    even a *single* heavyweight sweep parallelizes.  This is the same
    pooled path a parallel ``check_all`` takes: shards dispatch
    breadth-first across sweeps, and a sweep is merged the moment its
    verdict is decided, its unstarted shards dropped and its running
    ones stopped.  Reports are merged **in submission order, in
    assignment order within each sweep** with the same early-stop rule,
    so both paths return identical results for identical inputs; a
    shard the pool quarantined merges its sweep as UNKNOWN at the
    shard's cursor (resumable) without failing its neighbours.

    A :class:`~repro.resilience.checkpoint.CampaignCheckpoint` is
    honoured and maintained either way: completed units are reused
    instantly, conclusive reports are recorded **the moment their sweep
    is decided** (an interrupt loses at most undecided units), and the
    first inconclusive unit's partial progress is suspended for resume.

    Returns ``(key, report)`` pairs in submission order, truncated at
    the first inconclusive report.
    """
    cached: dict = {}
    pending: dict = {}
    for key, unit in units:
        done = campaign.report_for(key) if campaign is not None else None
        if done is not None:
            cached[key] = done
            continue
        resume = campaign.resume_point(key) if campaign is not None else None
        if resume is not None:
            unit = replace(unit, resume=resume)
        pending[key] = unit

    def finish(key, report: ConsensusReport) -> None:
        crashpoint("campaign.unit.finish")
        if campaign is not None:
            if report.inconclusive:
                campaign.suspend(key, report.checkpoint)
            else:
                campaign.record(key, report)

    def decided(key, report: ConsensusReport) -> None:
        # The campaign suspends only its first inconclusive sweep (below).
        if not report.inconclusive:
            finish(key, report)

    pooled: dict = {}
    if workers is not None and workers > 1 and pending:
        plans = {
            key: _SweepPlan(
                unit.checker(), unit.model, (0, 1), unit.resume, shard_states
            )
            for key, unit in pending.items()
        }
        run_sweeps(plans, pool, workers, decided)
        pooled = {key: plan.report for key, plan in plans.items()}

    out: list[tuple] = []
    for key, _ in units:
        if key in cached:
            report = cached[key]
        elif key in pooled:
            report = pooled[key]
            if report.inconclusive and campaign is not None:
                campaign.suspend(key, report.checkpoint)
        else:
            unit = pending[key]
            crashpoint("campaign.unit.start")
            report = unit.checker().check_all(
                unit.model, checkpoint=unit.resume
            )
            finish(key, report)
        out.append((key, report))
        if report.inconclusive:
            break
    return out
