"""The synchronic layering ``S^rw`` for shared memory (Section 5.1).

A layer is a *virtual round* with four stages ``W1, R1, W2, R2`` in which
all processes but at most one perform a complete local phase.  The
environment's layer actions are:

* ``(j, A)`` — process ``j`` is *absent*: the proper processes (everyone
  else) write in ``W1`` and read in ``R1``; ``j`` does nothing.
* ``(j, k)`` for ``0 <= k <= n`` — process ``j`` is *slow*: the proper
  processes write in ``W1``; the proper processes with id ``< k`` read in
  ``R1`` (missing ``j``'s write); ``j`` writes in ``W2``; ``j`` and the
  proper processes with id ``>= k`` read in ``R2`` (seeing ``j``'s write).

(Ids are 0-based; the paper's "proper processes ``i <= k``" over ``1..n``
is exactly "proper ``i < k``" over ``0..n-1``.)

Every ``S^rw``-run is *fair* — all processes except at most one take
infinitely many steps — which is how the paper sidesteps FLP-style
liveness bookkeeping: a protocol satisfying decision must decide along
every ``S^rw``-run.

The structure of Lemma 5.3's connectivity proof is exported for replay:
:func:`y_chain` gives the similarity chain across the ``(j,k)`` states and
:func:`absent_diamond` the common-successor construction showing
``x(j,n) ~v x(j,A)``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.state import GlobalState
from repro.layerings.base import ANY_STATE, Layering
from repro.models.shared_memory import SharedMemoryModel, step_action


def absent_rw(j: int) -> tuple:
    """The layer action ``(j, A)``."""
    return ("absent", j)


def sync_rw(j: int, k: int) -> tuple:
    """The layer action ``(j, k)``: ``j`` slow, proper ids ``< k`` read
    early (missing ``j``'s write)."""
    return ("sync", j, k)


class SynchronicRWLayering(Layering):
    """``S^rw`` over :class:`SharedMemoryModel`."""

    def __init__(self, model: SharedMemoryModel) -> None:
        if not isinstance(model, SharedMemoryModel):
            raise TypeError("S^rw is a layering of the shared-memory model")
        super().__init__(model)
        # The layer reads no part of the state: compile it once.
        self._compile_layers([ANY_STATE])

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        n = self.n
        actions = [sync_rw(j, k) for j in range(n) for k in range(n + 1)]
        actions.extend(absent_rw(j) for j in range(n))
        return actions

    def expand(self, state: GlobalState, action: tuple) -> Sequence[tuple]:
        kind = action[0]
        n = self.n
        if kind == "absent":
            _, j = action
            proper = [i for i in range(n) if i != j]
            return tuple(
                [step_action(i) for i in proper]  # W1: proper writes
                + [step_action(i) for i in proper for _ in range(n)]  # R1
            )
        if kind == "sync":
            _, j, k = action
            proper = [i for i in range(n) if i != j]
            early = [i for i in proper if i < k]
            late = [i for i in proper if i >= k]
            steps = [step_action(i) for i in proper]  # W1: proper writes
            steps += [step_action(i) for i in early for _ in range(n)]  # R1
            steps += [step_action(j)]  # W2: j's write
            steps += [step_action(j) for _ in range(n)]  # R2: j reads
            steps += [step_action(i) for i in late for _ in range(n)]  # R2
            return tuple(steps)
        raise ValueError(f"not an S^rw action: {action!r}")

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """An absent round crashes its absent process; a slow round does
        not — the slow process still completes a full local phase."""
        if action[0] == "absent":
            return frozenset(i for i in range(self.n) if i != action[1])
        return frozenset(range(self.n))


def y_chain(n: int) -> list[tuple[tuple, tuple]]:
    """Similarity edges covering ``Y = {x(j,k)}`` (first half of Lemma 5.3).

    Returns action pairs whose successors are claimed similar or equal:

    * ``(j, 0)`` and ``(j', 0)`` produce the *same* state (all reads occur
      after all writes, so the slow process's identity is immaterial);
    * ``(j, k)`` and ``(j, k+1)`` agree modulo process ``k`` — the only
      process whose read stage flips (when ``k == j`` the states are
      simply equal, as ``j`` is not proper).
    """
    pairs: list[tuple[tuple, tuple]] = []
    for j in range(n - 1):
        pairs.append((sync_rw(j, 0), sync_rw(j + 1, 0)))
    for j in range(n):
        for k in range(n):
            pairs.append((sync_rw(j, k), sync_rw(j, k + 1)))
    return pairs


def absent_diamond(j: int, n: int) -> tuple[list[tuple], list[tuple]]:
    """The two-layer sequences whose endpoints witness ``x(j,n) ~v x(j,A)``
    (second half of Lemma 5.3)::

        y  = x(j, n)(j, A)
        y' = x(j, A)(j, 0)

    The endpoints agree modulo ``j`` — the only value ``j`` ever wrote is
    the same in both (its phase-start value), and every proper process
    reads it in the second round in both — so by the crash-display
    property they share a valence, linking the absent states to ``Y``.
    """
    return [sync_rw(j, n), absent_rw(j)], [absent_rw(j), sync_rw(j, 0)]
