"""The permutation layering ``S^per`` (Section 5.1).

Inspired by wait-free immediate-snapshot executions in shared memory, this
is — per the paper — the first immediate-snapshot analogue suggested for
message passing.  A layer schedules *local phases* (receive everything,
then send) in one of three patterns over pairwise-distinct processes:

* **full**:  ``[p_1, ..., p_n]`` — a linear order over all processes;
* **short**: ``[p_1, ..., p_{n-1}]`` — one process skipped this layer;
* **pair**:  ``[p_1, ..., {p_k, p_{k+1}}, ..., p_n]`` — two adjacent
  processes run their phases *concurrently*: both receive before either
  sends, so neither sees the other's current-phase messages.

Every ``S^per``-run has all but at most one process moving infinitely
often (the short schedules can starve only one process per layer), which
is the paper's trick for sidestepping FLP-style liveness arguments.

The connectivity structure is replayed constructively:

* :func:`transposition_edges` — swapping ``p_k, p_{k+1}`` links two full
  schedules through the pair schedule in two similarity steps, and
  adjacent transpositions span all permutations;
* :func:`diamond` — the minimal FLP diamond:
  ``x[p_1..p_n][p_1..p_{n-1}] == x[p_1..p_{n-1}][p_n, p_1..p_{n-1}]``,
  giving the short schedule a *common successor* with the full one, hence
  a shared valence.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import permutations

from repro.core.state import GlobalState
from repro.layerings.base import ANY_STATE, Layering
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    recv_action,
    stage_action,
)


def full_schedule(order: Sequence[int]) -> tuple:
    """The layer action ``[p_1, ..., p_n]``."""
    return ("full", tuple(order))


def short_schedule(order: Sequence[int]) -> tuple:
    """The layer action ``[p_1, ..., p_{n-1}]`` (one process skipped)."""
    return ("short", tuple(order))


def pair_schedule(order: Sequence[int], k: int) -> tuple:
    """The layer action with ``p_{k}`` and ``p_{k+1}`` concurrent (0-based
    position ``k`` in ``order``, which must list all ``n`` processes)."""
    return ("pair", tuple(order), k)


class PermutationLayering(Layering):
    """``S^per`` over :class:`AsyncMessagePassingModel`."""

    def __init__(self, model: AsyncMessagePassingModel) -> None:
        if not isinstance(model, AsyncMessagePassingModel):
            raise TypeError(
                "the permutation layering is defined over the async MP model"
            )
        super().__init__(model)
        # The layer reads no part of the state: compile it once.
        self._compile_layers([ANY_STATE])

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        n = self.n
        processes = range(n)
        actions: list[tuple] = []
        for order in permutations(processes):
            actions.append(full_schedule(order))
            for k in range(n - 1):
                actions.append(pair_schedule(order, k))
        for order in permutations(processes, n - 1):
            actions.append(short_schedule(order))
        return actions

    def expand(self, state: GlobalState, action: tuple) -> Sequence[tuple]:
        kind = action[0]
        if kind in ("full", "short"):
            _, order = action
            steps: list[tuple] = []
            for p in order:
                steps.extend(_sequential_phase(p))
            return tuple(steps)
        if kind == "pair":
            _, order, k = action
            steps = []
            for p in order[:k]:
                steps.extend(_sequential_phase(p))
            p, q = order[k], order[k + 1]
            steps.extend(
                [
                    stage_action(p),
                    stage_action(q),
                    recv_action(p),
                    recv_action(q),
                    flush_action(p),
                    flush_action(q),
                ]
            )
            for r in order[k + 2 :]:
                steps.extend(_sequential_phase(r))
            return tuple(steps)
        raise ValueError(f"not a permutation-layering action: {action!r}")

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Full and pair schedules run everybody; a short schedule crashes
        exactly the one process it skips."""
        if action[0] == "short":
            return frozenset(action[1])
        return frozenset(range(self.n))


def _sequential_phase(p: int) -> tuple[tuple, tuple, tuple]:
    """One sequential local phase: stage, receive everything, flush."""
    return (stage_action(p), recv_action(p), flush_action(p))


def transposition_edges(order: Sequence[int], k: int) -> list[tuple[tuple, tuple]]:
    """The two similarity edges linking a transposition (paper, §5.1)::

        x[p_1..p_k, p_{k+1}..p_n] ~s x[p_1..{p_k,p_{k+1}}..p_n]
                                  ~s x[p_1..p_{k+1}, p_k..p_n]

    Returns the two (action, action) pairs; tests check that each pair's
    successors agree modulo one of the swapped processes.
    """
    swapped = list(order)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    return [
        (full_schedule(order), pair_schedule(order, k)),
        (pair_schedule(order, k), full_schedule(swapped)),
    ]


def diamond(order: Sequence[int]) -> tuple[list[tuple], list[tuple]]:
    """The minimal FLP diamond (paper, §5.1)::

        y = x[p_1,...,p_{n-1},p_n][p_1,...,p_{n-1}]
          = x[p_1,...,p_{n-1}][p_n,p_1,...,p_{n-1}]

    Returns the two two-layer action sequences; applying either from the
    same state must land on the *same* global state, which gives
    ``x[p_1..p_n] ~v x[p_1..p_{n-1}]`` via the common successor ``y``.
    """
    order = tuple(order)
    prefix, last = order[:-1], order[-1]
    left = [full_schedule(order), short_schedule(prefix)]
    right = [short_schedule(prefix), full_schedule((last,) + prefix)]
    return left, right
