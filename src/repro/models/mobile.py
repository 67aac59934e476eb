"""The single mobile failure model ``M^mf`` (Section 5).

The standard synchronous message-passing model, except that in every round
the environment may lose *some of the messages of at most one process*.
The environment's action at a state is a pair ``(j, G)``: all messages sent
this round by process ``j`` to processes in ``G`` are lost.  The identity
of the afflicted process can change from round to round — hence *mobile*.

Following the paper (footnote 3) the environment's local state is constant
in this model: the processes' next states depend only on their current
local states and the environment's action, so we represent ``x_e`` by the
constant ``"mf"``.

``Faulty(i, r)`` holds exactly when there is a finite ``k`` such that ``i``
is silenced in all rounds ``>= k`` of ``r``.  No finite prefix can witness
that, so ``M^mf`` *displays no finite failure*: ``failed_at`` is empty for
every state, which is what lets Lemma 3.2 (a bivalent state has **no**
decided process at all) apply in this model.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Optional

from repro.core.state import GlobalState
from repro.models.base import (
    Model,
    ProtocolTables,
    RoundOutcome,
    RoundProgram,
    round_program,
    synchronous_round,
)
from repro.protocols.base import MessagePassingProtocol

ENV_MF: str = "mf"


def omit_action(j: int, targets: Iterable[int]) -> tuple:
    """The environment action ``(j, G)``: drop ``j``'s messages to ``G``."""
    return ("omit", j, frozenset(targets))


def prefix_action(j: int, k: int) -> tuple:
    """The action ``(j, [k])`` of the layering ``S_1``: drop ``j``'s
    messages to the first ``k`` processes ``{0, ..., k-1}``.

    ``k = 0`` is the failure-free round (the paper's ``(j, [0])``); note it
    yields the same successor for every ``j``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return omit_action(j, range(k))


class MobileModel(Model):
    """``M^mf`` driving a :class:`MessagePassingProtocol`."""

    def __init__(self, protocol: MessagePassingProtocol, n: int) -> None:
        super().__init__(n)
        self._protocol = protocol

    @property
    def protocol(self) -> MessagePassingProtocol:
        return self._protocol

    # -- Model -------------------------------------------------------------
    def initial_state(self, inputs: Sequence[Hashable]) -> GlobalState:
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        locals_ = tuple(
            self._protocol.initial_local(i, self.n, value)
            for i, value in enumerate(inputs)
        )
        return GlobalState(ENV_MF, locals_)

    def actions(self, state: GlobalState) -> list[tuple]:
        """All ``(j, G)`` pairs: one afflicted process, any target set.

        This is the *full* model — ``n * 2^n`` labelled actions per state
        (``G`` ranges over arbitrary subsets of ``{0..n-1}`` as in the
        paper; including ``j`` itself is harmless since self-messages do
        not exist, and duplicates collapse at the state level).  The
        layering ``S_1`` restricts to the ``(j, [k])`` prefix actions.
        """
        all_actions = []
        for j in range(self.n):
            for mask in range(1 << self.n):
                group = frozenset(
                    b for b in range(self.n) if mask >> b & 1
                )
                all_actions.append(("omit", j, group))
        return all_actions

    def apply(self, state: GlobalState, action: tuple) -> GlobalState:
        return self.apply_each(state, ((action,),))[0]

    def compile(self, expansions: Iterable[Iterable[tuple]]) -> RoundProgram:
        return round_program(expansions)

    def run(
        self,
        state: GlobalState,
        program: RoundProgram,
        tables: Optional[ProtocolTables] = None,
    ) -> list[GlobalState]:
        """One synchronous round from *state* for every expansion.

        Each distinct ``(j, G)`` action is checked and applied once; see
        :func:`repro.models.base.synchronous_round`.  Its check and
        outcome read nothing of the state, so *tables* keep them for
        every later state.
        """
        n = self.n
        none_lost: frozenset[int] = frozenset()

        def round_for(action: tuple) -> RoundOutcome:
            kind, j, group = action
            if kind != "omit":
                raise ValueError(f"unknown M^mf action {action!r}")
            afflicted = frozenset((j,))
            lost = tuple(
                afflicted if dest in group else none_lost for dest in range(n)
            )
            return ENV_MF, lost

        return synchronous_round(
            self, self._protocol, state, program, round_for, tables
        )

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """``M^mf`` displays no finite failure."""
        return frozenset()

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Repeating ``(j, G)`` forever silences *j* (when ``G`` actually
        contains another process), making it faulty per this model's
        ``Faulty`` definition; everyone else stays nonfaulty."""
        _, j, group = action
        if group - {j}:
            return frozenset(i for i in range(self.n) if i != j)
        return frozenset(range(self.n))

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        out = {}
        for i in range(self.n):
            value = self._protocol.decision(i, self.n, state.local(i))
            if value is not None:
                out[i] = value
        return out
