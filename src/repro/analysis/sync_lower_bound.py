"""Section 6 drivers: the synchronous ``t+1``-round lower bound.

Corollary 6.3 has two executable faces for concrete ``(n, t)``:

* **every protocol deciding within ``t`` rounds is defeated** — the
  ``S^t`` adversary produces an explicit failure schedule violating
  agreement or validity (:func:`defeat_fast_candidates`);
* **the bound is tight** — FloodSet and EIG at ``t+1`` rounds verify
  exhaustively, both in the ``S^t`` submodel and against the *full*
  synchronous model's failure patterns (:func:`verify_tight_protocols`).

The supporting lemmas are replayed with witnesses:

* Lemma 6.1 (:func:`lemma_6_1`) — from a bivalent state with ``f``
  failures, a bivalent ``S^t``-execution of length ``t - f - 1`` exists;
* Lemma 6.2 (:func:`lemma_6_2`) — one more layer still leaves some
  non-failed process undecided, via the similarity chain of the layer;
* Lemma 6.4 (:func:`lemma_6_4`) — for a *fast* protocol (always decides
  by ``t+1``), a failure-free round after ``<= k`` failures forces
  univalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.analysis.campaign import SweepUnit, run_campaign
from repro.analysis.lemmas import LemmaReport
from repro.core.bivalence import bivalent_successor
from repro.core.cache import CacheSpec
from repro.core.checker import ConsensusReport
from repro.core.connectivity import lemma_3_6
from repro.core.run import Execution
from repro.core.state import GlobalState
from repro.core.valence import ValenceAnalyzer
from repro.layerings.st_synchronous import StSynchronousLayering, st_action
from repro.models.sync import SynchronousModel
from repro.protocols.base import MessagePassingProtocol
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.crashpoint import crashpoint

if TYPE_CHECKING:
    from repro.resilience.pool import PoolConfig


def make_st_system(
    protocol: MessagePassingProtocol, n: int, t: int
) -> StSynchronousLayering:
    """Bind a protocol into the ``S^t`` layered synchronous system."""
    return StSynchronousLayering(SynchronousModel(protocol, n, t))


@dataclass(frozen=True)
class LowerBoundRow:
    """One protocol's entry in the Corollary 6.3 table."""

    protocol_name: str
    n: int
    t: int
    rounds: int
    report: ConsensusReport

    @property
    def defeated(self) -> bool:
        """The checker found an actual violation.

        Deliberately ``refuted`` and not ``not satisfied``: a
        budget-exhausted UNKNOWN verdict is *inconclusive*, which must
        never be presented as a successful refutation.
        """
        return self.report.refuted

    @property
    def inconclusive(self) -> bool:
        """The budget ran out before a verdict was reached."""
        return self.report.inconclusive


def _campaign_rows(
    specs: list[tuple],
    campaign: Optional[CampaignCheckpoint],
    workers: Optional[int],
    pool: Optional[PoolConfig],
) -> list[LowerBoundRow]:
    """Run ``(label, key, unit, n, t, rounds)`` specs through the shared
    campaign engine and rebuild the table rows, truncated (like the
    sequential loop always was) at the first inconclusive unit."""
    crashpoint("driver.lower_bound.campaign")
    results = run_campaign(
        [(key, unit) for _, key, unit, *_ in specs],
        campaign=campaign,
        workers=workers,
        pool=pool,
    )
    return [
        LowerBoundRow(label, n, t, rounds, report)
        for (label, _, _, n, t, rounds), (_, report) in zip(specs, results)
    ]


def defeat_fast_candidates(
    n: int,
    t: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    campaign: Optional[CampaignCheckpoint] = None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> list[LowerBoundRow]:
    """Defeat every shipped candidate deciding within ``t`` rounds.

    Candidates: FloodSet and EIG with ``1 .. t`` rounds.  Each must be
    refuted by the ``S^t`` adversary (they always decide and are valid,
    so the violation is agreement — the classic ``t``-round scenario).

    ``max_states`` accepts a state count or a full
    :class:`~repro.resilience.budget.Budget`; a *campaign* checkpoint makes the
    sweep resumable unit-by-unit, stopping at the first unit whose budget
    trips (continuing under an exhausted wall clock would be futile).
    ``workers > 1`` runs the units on the fault-isolated pool with a
    deterministic merge — identical rows, crashes quarantined (see
    :func:`repro.analysis.campaign.run_campaign`).
    """
    budget = Budget.of(max_states)
    specs = []
    for rounds in range(1, t + 1):
        for protocol in (FloodSet(rounds), EIG(rounds)):
            layering = make_st_system(protocol, n, t)
            specs.append(
                (
                    protocol.name(),
                    f"defeat:{protocol.name()}:n{n}:t{t}",
                    SweepUnit(
                        layering, layering.model, budget, cache=cache,
                        preflight=preflight,
                    ),
                    n,
                    t,
                    rounds,
                )
            )
    return _campaign_rows(specs, campaign, workers, pool)


def verify_tight_protocols(
    n: int,
    t: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    include_full_model: bool = True,
    clean_crashes_only: bool = False,
    campaign: Optional[CampaignCheckpoint] = None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> list[LowerBoundRow]:
    """Verify FloodSet/EIG at ``t+1`` rounds — the bound is tight.

    Checked over the ``S^t`` submodel and (optionally) over the full
    synchronous model, whose failure patterns include multiple new
    failures per round with arbitrary blocked subsets.  Budget, campaign
    and worker semantics as in :func:`defeat_fast_candidates`.
    """
    budget = Budget.of(max_states)
    specs = []
    for protocol in (FloodSet(t + 1), EIG(t + 1)):
        layering = make_st_system(protocol, n, t)
        specs.append(
            (
                f"{protocol.name()} [S^t]",
                f"tight:st:{protocol.name()}:n{n}:t{t}",
                SweepUnit(
                    layering, layering.model, budget, cache=cache,
                    preflight=preflight,
                ),
                n,
                t,
                t + 1,
            )
        )
        if include_full_model:
            model = SynchronousModel(
                protocol, n, t, clean_crashes_only=clean_crashes_only
            )
            specs.append(
                (
                    f"{protocol.name()} [full sync]",
                    f"tight:full:{protocol.name()}:n{n}:t{t}",
                    SweepUnit(
                        model, model, budget, cache=cache,
                        preflight=preflight,
                    ),
                    n,
                    t,
                    t + 1,
                )
            )
    return _campaign_rows(specs, campaign, workers, pool)


def lemma_6_1(
    layering: StSynchronousLayering,
    analyzer: ValenceAnalyzer,
    start: GlobalState,
) -> tuple[LemmaReport, Optional[Execution]]:
    """Lemma 6.1: extend a bivalent state, bivalently, to round ``t-f-1``.

    Returns the report and the constructed bivalent execution (each layer
    adds at most one failure, so failures at the end are at most ``t-1``).
    """
    t = layering.t
    f = len(layering.failed_at(start))
    if not analyzer.valence(start).bivalent:
        return (
            LemmaReport("6.1", False, "start state is not bivalent"),
            None,
        )
    execution = Execution((start,))
    state = start
    for _ in range(t - f - 1):
        step = bivalent_successor(layering, analyzer, state)
        execution = execution.extend(step.action, step.state)
        state = step.state
        if not analyzer.valence(state).bivalent:
            return (
                LemmaReport("6.1", False, "constructed state not bivalent"),
                execution,
            )
    failures = len(layering.failed_at(state))
    holds = failures <= t - 1
    return (
        LemmaReport(
            "6.1",
            holds,
            f"bivalent after {execution.length} layers with {failures} <= "
            f"{t - 1} failures",
            {"failures": failures, "length": execution.length},
        ),
        execution,
    )


def lemma_6_2(
    layering: StSynchronousLayering,
    analyzer: ValenceAnalyzer,
    state: GlobalState,
) -> LemmaReport:
    """Lemma 6.2: after a bivalent state, some successor has a non-failed
    undecided process (so one more round cannot finish — two are needed)."""
    if not analyzer.valence(state).bivalent:
        return LemmaReport("6.2", True, "state not bivalent (vacuous)")
    for _, child in layering.successors(state):
        failed = layering.failed_at(child)
        decided = layering.decisions(child)
        undecided = [
            i for i in range(child.n) if i not in failed and i not in decided
        ]
        if undecided:
            return LemmaReport(
                "6.2",
                True,
                f"successor with undecided non-failed processes {undecided}",
                {"witness_undecided": undecided},
            )
    return LemmaReport(
        "6.2", False, "every successor fully decided after a bivalent state"
    )


def lemma_6_4(
    n: int,
    t: int,
    protocol: Optional[MessagePassingProtocol] = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
) -> LemmaReport:
    """Lemma 6.4: for a fast protocol, if at most ``k`` processes have
    failed by the end of round ``k`` and round ``k+1`` is failure-free,
    the resulting state is univalent.

    Checked exhaustively over all reachable ``S^t`` executions of the
    (fast) ``t+1``-round FloodSet protocol by default.
    """
    protocol = protocol or FloodSet(t + 1)
    layering = make_st_system(protocol, n, t)
    # Strict: the lemma's conclusion quantifies over complete valences —
    # a partial (lower-bound) valence could miss a bivalence witness.
    analyzer = ValenceAnalyzer(layering, max_states, strict=True)
    model = layering.model
    violations = 0
    checked = 0
    frontier: list[tuple[GlobalState, int]] = [
        (model.initial_state(inputs), 0)
        for inputs in _all_inputs(n)
    ]
    seen = set()
    while frontier:
        state, k = frontier.pop()
        if (state, k) in seen:
            continue
        seen.add((state, k))
        if len(layering.failed_at(state)) <= k:
            # round k+1 failure-free: the (0,[0]) successor
            child = layering.apply(state, st_action(0, 0))
            checked += 1
            if analyzer.valence(child).bivalent:
                violations += 1
        if k < t + 1:
            for _, child in layering.successors(state):
                frontier.append((child, k + 1))
    return LemmaReport(
        "6.4",
        violations == 0,
        f"{checked} failure-free extensions checked, {violations} bivalent",
        {"checked": checked, "violations": violations},
    )


def _all_inputs(n: int):
    from itertools import product

    return product((0, 1), repeat=n)


def synchronous_bivalent_start(
    layering: StSynchronousLayering,
    analyzer: ValenceAnalyzer,
) -> GlobalState:
    """A bivalent initial state of the ``S^t`` system (Lemma 3.6)."""
    initial_states = layering.model.initial_states((0, 1))
    return lemma_3_6(initial_states, layering, analyzer)
