"""The synchronic layering for asynchronous message passing.

The paper (end of the ``S^rw`` discussion): "a completely analogous
impossibility proof can be given for asynchronous message passing as well.
The structure of the layering function, and the reasoning underlying the
results remain unchanged" — and "the model defined by the analogous
layering function is even closer to the synchronous models that are
popular in the literature."  This module is that analogous layering.

A layer is a virtual round with stages ``W1, R1, W2, R2`` where a *send*
plays the role of a write and a batch-*receive* the role of the read
collect:

* ``(j, A)`` — ``j`` absent: every proper process sends (``W1``) and then
  receives all outstanding messages (``R1``); ``j`` does nothing.
* ``(j, k)`` — ``j`` slow: proper processes send in ``W1``; proper ids
  ``< k`` receive in ``R1`` (before ``j``'s send, hence missing it);
  ``j`` sends in ``W2``; ``j`` and proper ids ``>= k`` receive in ``R2``.

All message contents are computed from round-start local states (the
``stage`` primitive of :mod:`repro.models.async_mp`), matching the
synchronous model's "send, then receive" round discipline, so at least
``n-1`` processes per round have a view almost identical to a synchronous
run — the paper's "strongest explicit version so far of an FLP-like
impossibility theorem" lives in exactly this submodel.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.state import GlobalState
from repro.layerings.base import ANY_STATE, Layering
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    recv_action,
    stage_action,
)


def absent_mp(j: int) -> tuple:
    """The layer action ``(j, A)``."""
    return ("absent", j)


def sync_mp(j: int, k: int) -> tuple:
    """The layer action ``(j, k)``: ``j`` slow, proper ids ``< k`` receive
    before ``j``'s send."""
    return ("sync", j, k)


class SynchronicMPLayering(Layering):
    """The synchronic layering over :class:`AsyncMessagePassingModel`."""

    def __init__(self, model: AsyncMessagePassingModel) -> None:
        if not isinstance(model, AsyncMessagePassingModel):
            raise TypeError(
                "the synchronic MP layering is defined over the async MP model"
            )
        super().__init__(model)
        # The layer reads no part of the state: compile it once.
        self._compile_layers([ANY_STATE])

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        n = self.n
        actions = [sync_mp(j, k) for j in range(n) for k in range(n + 1)]
        actions.extend(absent_mp(j) for j in range(n))
        return actions

    def expand(self, state: GlobalState, action: tuple) -> Sequence[tuple]:
        kind = action[0]
        n = self.n
        if kind == "absent":
            _, j = action
            proper = [i for i in range(n) if i != j]
            steps = []
            for i in proper:  # W1: proper sends
                steps.extend((stage_action(i), flush_action(i)))
            steps.extend(recv_action(i) for i in proper)  # R1
            return tuple(steps)
        if kind == "sync":
            _, j, k = action
            proper = [i for i in range(n) if i != j]
            early = [i for i in proper if i < k]
            late = [i for i in proper if i >= k]
            steps = []
            for i in proper:  # W1: proper sends
                steps.extend((stage_action(i), flush_action(i)))
            steps.extend(recv_action(i) for i in early)  # R1
            steps.extend((stage_action(j), flush_action(j)))  # W2: j sends
            steps.append(recv_action(j))  # R2: j receives
            steps.extend(recv_action(i) for i in late)  # R2: late receives
            return tuple(steps)
        raise ValueError(f"not a synchronic-MP action: {action!r}")

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """An absent round crashes its absent process; a slow round does
        not — the slow process still sends and receives."""
        if action[0] == "absent":
            return frozenset(i for i in range(self.n) if i != action[1])
        return frozenset(range(self.n))


def y_chain(n: int) -> list[tuple[tuple, tuple]]:
    """Similarity edges covering ``Y = {x(j,k)}`` — the MP analogue of
    :func:`repro.layerings.synchronic_rw.y_chain`."""
    pairs: list[tuple[tuple, tuple]] = []
    for j in range(n - 1):
        pairs.append((sync_mp(j, 0), sync_mp(j + 1, 0)))
    for j in range(n):
        for k in range(n):
            pairs.append((sync_mp(j, k), sync_mp(j, k + 1)))
    return pairs


def absent_diamond(j: int, n: int) -> tuple[list[tuple], list[tuple]]:
    """Two-layer sequences witnessing ``x(j,n) ~v x(j,A)`` — the MP
    analogue of :func:`repro.layerings.synchronic_rw.absent_diamond`."""
    return [sync_mp(j, n), absent_mp(j)], [absent_mp(j), sync_mp(j, 0)]
