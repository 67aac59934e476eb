"""Section 5 drivers: the impossibility results, constructively.

For each of the paper's asynchronous-style layered models —

* ``S_1`` over the mobile-failure model (Corollary 5.2),
* ``S^rw`` over shared memory (Corollary 5.4),
* the synchronic and permutation layerings over message passing —

these drivers run the two faces of Theorem 4.2 on concrete protocols:

1. :func:`refute_candidate` — hand any candidate protocol to the
   exhaustive checker; the verdict is never ``SATISFIED`` (that *is*
   Theorem 4.2), and the returned report carries the adversary schedule.
2. :func:`forever_bivalent_run` — for protocols that agree and are valid
   but do not always decide (the ``WaitForAll`` shape), replay the
   proof's own construction: bivalent initial state (Lemma 3.6), then a
   bivalent successor each layer (Lemma 4.1), closed into a lasso.

:func:`standard_layerings` builds the four layered systems for a given
dual protocol, so experiments can sweep protocols × models uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.analysis.campaign import SweepUnit, run_campaign
from repro.core.bivalence import build_bivalent_lasso
from repro.core.cache import CacheSpec
from repro.core.checker import ConsensusChecker, ConsensusReport, Verdict
from repro.core.connectivity import lemma_3_6
from repro.core.run import RunWitness
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.synchronic_mp import SynchronicMPLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.base import DualProtocol, MessagePassingProtocol
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.crashpoint import crashpoint

if TYPE_CHECKING:
    from repro.resilience.pool import PoolConfig


def standard_layering_classes(protocol) -> dict[str, tuple[type, type]]:
    """The Section 5 layered systems applicable to *protocol*, unbuilt:
    ``name -> (layering class, model class)``.

    Message-passing layerings apply to every
    :class:`MessagePassingProtocol`; the shared-memory synchronic
    layering additionally requires the protocol to implement the
    shared-memory interface (all :class:`DualProtocol` subclasses do).
    """
    classes: dict[str, tuple[type, type]] = {}
    if isinstance(protocol, MessagePassingProtocol):
        classes["s1-mobile"] = (S1MobileLayering, MobileModel)
        classes["synchronic-mp"] = (
            SynchronicMPLayering, AsyncMessagePassingModel
        )
        classes["permutation-mp"] = (
            PermutationLayering, AsyncMessagePassingModel
        )
    if isinstance(protocol, DualProtocol):
        from repro.layerings.iterated_snapshot import (
            IteratedSnapshotLayering,
        )
        from repro.models.snapshot import SnapshotMemoryModel

        classes["synchronic-rw"] = (SynchronicRWLayering, SharedMemoryModel)
        classes["iis-snapshot"] = (
            IteratedSnapshotLayering, SnapshotMemoryModel
        )
    if not classes:
        raise TypeError(
            f"{type(protocol).__name__} fits no Section 5 layering interface"
        )
    return classes


def standard_layerings(protocol, n: int) -> dict[str, object]:
    """The Section 5 layered systems applicable to *protocol*, built for
    *n* processes (see :func:`standard_layering_classes`)."""
    return {
        name: layering(model(protocol, n))
        for name, (layering, model) in standard_layering_classes(
            protocol
        ).items()
    }


@dataclass(frozen=True)
class Refutation:
    """A defeated consensus candidate in one layered model."""

    model_name: str
    protocol_name: str
    report: ConsensusReport

    @property
    def verdict(self) -> Verdict:
        return self.report.verdict

    @property
    def refuted(self) -> bool:
        """The checker found an actual violation (not just non-SATISFIED:
        a budget-exhausted UNKNOWN is inconclusive, not a refutation)."""
        return self.report.refuted

    @property
    def inconclusive(self) -> bool:
        """The budget ran out before a verdict was reached."""
        return self.report.inconclusive

    def schedule(self):
        """The adversary's layer-action schedule (safety violations)."""
        if self.report.execution is None:
            return None
        return self.report.execution.actions


def refute_candidate(
    protocol,
    n: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    campaign: Optional[CampaignCheckpoint] = None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> list[Refutation]:
    """Run one candidate through every applicable layered model.

    Theorem 4.2 guarantees no verdict is ``SATISFIED``; callers assert it.
    ``max_states`` accepts a state count or a full
    :class:`~repro.resilience.budget.Budget`; a *campaign* checkpoint makes the
    sweep resumable model-by-model, stopping at the first model whose
    budget trips.  With ``workers > 1`` the per-model sweeps run on the
    fault-isolated worker pool and merge deterministically — results are
    identical to the sequential run, and a crashing model sweep is
    quarantined as UNKNOWN instead of killing the campaign (see
    :func:`repro.analysis.campaign.run_campaign`).

    ``cache`` memoizes successor/failure/decision queries per unit
    (default on; pass ``False`` to disable, an int for an LRU bound).
    Each unit gets its own cache — parallel workers never share one —
    and verdicts are byte-identical either way.

    ``preflight`` (default on) runs the contract checks
    (:mod:`repro.core.contracts`) inside each layered system's search;
    an ill-formed candidate is diagnosed as ``ILL_FORMED``.
    """
    budget = Budget.of(max_states)
    layerings = standard_layerings(protocol, n)
    units = [
        (
            f"refute:{name}:{protocol.name()}:n{n}",
            SweepUnit(
                system=layering,
                model=layering.model,
                budget=budget,
                cache=cache,
                preflight=preflight,
            ),
        )
        for name, layering in layerings.items()
    ]
    crashpoint("driver.impossibility.campaign")
    results = run_campaign(units, campaign=campaign, workers=workers, pool=pool)
    return [
        Refutation(model_name=name, protocol_name=protocol.name(), report=report)
        for name, (_, report) in zip(layerings, results)
    ]


def forever_bivalent_run(
    layering,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    value_domain=(0, 1),
    cache: CacheSpec = True,
) -> tuple[RunWitness, ValenceAnalyzer]:
    """Theorem 4.2's construction: the infinite bivalent run, as a lasso.

    Finds the bivalent initial state via Lemma 3.6 and extends it with
    Lemma 4.1 until the (finite-state) system repeats.  Returns the lasso
    and the analyzer (whose statistics the benchmarks report).

    Choose the protocol to match the theorem's premises: the construction
    needs layers that are valence connected, which Lemma 3.3 derives from
    the *decision* requirement — so run it on a protocol that always
    decides and is valid (e.g. :class:`repro.protocols.QuorumDecide`).
    The deterministic bivalent walk then lands in a state where the
    reachable decisions disagree — the theorem's contradiction made
    concrete.  A protocol that instead sacrifices decision (e.g.
    ``WaitForAll``) has *univalent* initial states (whoever decides saw
    everything), so Lemma 3.6's bivalence conclusion does not apply to it
    — its refutation comes from :func:`refute_candidate`'s lasso instead.
    """
    # Strict: the bivalent walk *acts* on valence verdicts — extending a
    # run along a state misclassified univalent-by-truncation would build
    # an invalid proof object, so degradation is not sound here.
    analyzer = ValenceAnalyzer(layering, max_states, strict=True, cache=cache)
    initial_states = layering.model.initial_states(value_domain)
    start = lemma_3_6(initial_states, layering, analyzer)
    lasso = build_bivalent_lasso(layering, analyzer, start)
    return lasso, analyzer


def corollary_5_2(
    protocol,
    n: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> Refutation:
    """Corollary 5.2: consensus unsolvable under a single mobile failure."""
    layering = S1MobileLayering(MobileModel(protocol, n))
    report = ConsensusChecker(
        layering, max_states, cache=cache, preflight=preflight
    ).check_all(layering.model)
    return Refutation("s1-mobile", protocol.name(), report)


def corollary_5_4(
    protocol: DualProtocol,
    n: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> Refutation:
    """Corollary 5.4: consensus unsolvable 1-resiliently in r/w shared
    memory — in fact already in the barely-asynchronous ``S^rw`` submodel."""
    layering = SynchronicRWLayering(SharedMemoryModel(protocol, n))
    report = ConsensusChecker(
        layering, max_states, cache=cache, preflight=preflight
    ).check_all(layering.model)
    return Refutation("synchronic-rw", protocol.name(), report)


def permutation_impossibility(
    protocol,
    n: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> Refutation:
    """The FLP-style impossibility via the permutation layering."""
    layering = PermutationLayering(AsyncMessagePassingModel(protocol, n))
    report = ConsensusChecker(
        layering, max_states, cache=cache, preflight=preflight
    ).check_all(layering.model)
    return Refutation("permutation-mp", protocol.name(), report)
