"""The layering ``S_1`` for the mobile-failure model (Section 5).

``S_1(x) = { x(j, [k]) : 0 <= j < n, 0 <= k <= n }`` — one successor per
environment action of the *prefix* form: process ``j``'s messages to the
first ``k`` processes ``{0, ..., k-1}`` are lost this round.

The connectivity proof of Lemma 5.1(iii) is replayed constructively by
:func:`similarity_chain`: ``x(j, [0])`` is identical for every ``j``, and
``x(j, [k])`` and ``x(j, [k+1])`` agree modulo process ``k`` (0-based),
because the only process whose received messages differ is ``k`` — so the
layer is similarity connected, hence (by crash display and Lemma 3.5)
valence connected.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.state import GlobalState
from repro.layerings.base import ANY_STATE, Layering
from repro.models.mobile import MobileModel, prefix_action


class S1MobileLayering(Layering):
    """``S_1`` over :class:`repro.models.mobile.MobileModel`."""

    def __init__(self, model: MobileModel) -> None:
        if not isinstance(model, MobileModel):
            raise TypeError("S_1 is a layering of the mobile-failure model")
        super().__init__(model)
        # The layer reads no part of the state: compile it once.
        self._compile_layers([ANY_STATE])

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        """All prefix actions ``(j, [k])``.

        Duplicates by *effect* remain (every ``(j, [0])`` is the failure-
        free round); the analyzers dedupe at the state level.
        """
        return [
            prefix_action(j, k)
            for j in range(self.n)
            for k in range(self.n + 1)
        ]

    def expand(self, state: GlobalState, action: tuple) -> Sequence[tuple]:
        """``S_1`` actions *are* primitive ``M^mf`` actions."""
        return (action,)

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        return self.model.nonfaulty_under(action)


def similarity_chain(
    layering: S1MobileLayering, state: GlobalState
) -> list[tuple[tuple, tuple]]:
    """The explicit chain witnessing Lemma 5.1(iii)'s similarity claim.

    Returns a list of action pairs ``(a, b)`` such that the successors
    ``apply(state, a)`` and ``apply(state, b)`` are claimed similar (or
    equal), and walking the pairs visits every action of the layer.  The
    chain is::

        (0,[0]) = (1,[0]) = ... = (n-1,[0])          (identical states)
        (j,[k]) ~s (j,[k+1])  for each j, 0 <= k < n (differ only at k)

    Tests replay the chain and check each claim with
    :func:`repro.core.state.agree_modulo`.
    """
    n = layering.n
    pairs: list[tuple[tuple, tuple]] = []
    for j in range(n - 1):
        pairs.append((prefix_action(j, 0), prefix_action(j + 1, 0)))
    for j in range(n):
        for k in range(n):
            pairs.append((prefix_action(j, k), prefix_action(j, k + 1)))
    return pairs
