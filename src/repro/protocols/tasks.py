"""Protocols for the solvable decision tasks of the Section 7 catalog.

These are the positive controls for Corollary 7.3: for every task the
thick-connectivity characterization declares solvable, a concrete
protocol is verified (exhaustively, by
:class:`repro.tasks.checker.TaskChecker`) to satisfy decision and
validity in the 1-resilient layered submodels — while for consensus and
leader election no protocol can, as the adversaries demonstrate.

All protocols reuse the gossip skeleton of
:mod:`repro.protocols.candidates` (emit one's seen-set, fold what is
observed), differing only in the decision map — which is exactly the
paper's framing: a decision problem is solved by gathering a sufficiently
stable view and applying a map whose image respects ``Δ``.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Optional

from repro.protocols.candidates import GossipState, _GossipProtocol


class DecideOwnInput(_GossipProtocol):
    """Solve the identity task: decide one's own input immediately."""

    def name(self) -> str:
        return "DecideOwnInput"

    def maybe_decide(self, i: int, n: int, local: GossipState) -> Hashable:
        return local.input


class DecideConstantProtocol(_GossipProtocol):
    """Solve the constant task: decide a fixed value immediately."""

    def __init__(self, value: Hashable = 0) -> None:
        self._value = value

    def name(self) -> str:
        return f"DecideConstant({self._value!r})"

    def maybe_decide(self, i: int, n: int, local: GossipState) -> Hashable:
        return self._value


class EpsilonAgreementProtocol(_GossipProtocol):
    """Solve discretized approximate agreement 1-resiliently.

    Wait until inputs from at least ``n-1`` distinct processes are known;
    if all seen inputs equal ``v``, decide the endpoint ``2v``; otherwise
    decide the midpoint ``1``.

    Why this lands in a width-1 window: two processes deciding endpoints
    ``0`` and ``2`` would need ``n-1`` all-zero and ``n-1`` all-one seen
    sets, i.e. ``n-1`` zeros and ``n-1`` ones among ``n`` inputs —
    impossible for ``n >= 3``.  Validity: unanimous inputs leave every
    quorum unanimous, forcing the matching endpoint.
    """

    def name(self) -> str:
        return "EpsilonAgreement(quorum=n-1)"

    def maybe_decide(
        self, i: int, n: int, local: GossipState
    ) -> Optional[Hashable]:
        pids = {pid for pid, _ in local.seen}
        if len(pids) < n - 1:
            return None
        values = {value for _, value in local.seen}
        if values == {0}:
            return 0
        if values == {1}:
            return 2
        return 1


class KSetAgreementProtocol(_GossipProtocol):
    """Solve k-set agreement for ``k >= 2``, 1-resiliently.

    Wait for inputs from ``n-1`` distinct processes, then decide the
    minimum seen.  At most two distinct values can be decided: every
    quorum of ``n-1`` processes misses at most one, so all seen sets
    contain the smallest input or the second-smallest at worst — deciders
    split between at most ``min`` and the global minimum's absence case.

    More precisely: every (n-1)-quorum's minimum is either the global
    minimum ``m1`` or (when the unique holder of ``m1`` is the one missed)
    the second-smallest ``m2`` — at most two values, hence 2-set valid.
    """

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(
                "the quorum-minimum protocol needs k >= 2 (k=1 is consensus)"
            )
        self._k = k

    def name(self) -> str:
        return f"KSetAgreement(k={self._k}, quorum=n-1)"

    def maybe_decide(
        self, i: int, n: int, local: GossipState
    ) -> Optional[Hashable]:
        pids = {pid for pid, _ in local.seen}
        if len(pids) < n - 1:
            return None
        return min(value for _, value in local.seen)

