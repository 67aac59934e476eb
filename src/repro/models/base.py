"""The model-of-computation interface.

A *model* in this library binds a deterministic protocol to ``n`` processes
and provides:

* the initial global states (one per input assignment — the paper's
  ``Con_0`` for consensus, ``D_0`` for decision problems);
* the *primitive* environment actions enabled at a state, and the
  transition function applying one;
* the failure bookkeeping: who is *failed at* a state, per the model's
  ``Faulty`` semantics (Section 2).

Layerings (:mod:`repro.layerings`) are defined **on top of** models: each
layer action expands into a sequence of primitive model actions, which is
exactly the paper's requirement that an ``S``-run embeds monotonically into
a run of the model (Section 4, "layering functions").  The expansion is
explicit (:meth:`repro.layerings.base.Layering.expand`) so tests can verify
the embedding rather than trust it.

All models here follow two conventions that the analyses rely on:

1. **Determinism given the action**: ``apply(state, action)`` is a pure
   function; all nondeterminism lives in the environment's choice among
   ``actions(state)``.
2. **Totality**: every state has at least one enabled action, so every
   state has infinite extensions (the paper's runs are infinite).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Sequence
from itertools import product

from repro.core.state import GlobalState


class Model(ABC):
    """A model of computation driving a fixed deterministic protocol."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("the paper assumes n >= 2 processes")
        self._n = n

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @abstractmethod
    def initial_state(self, inputs: Sequence[Hashable]) -> GlobalState:
        """The initial global state for the given input assignment."""

    @abstractmethod
    def actions(self, state: GlobalState) -> Iterable[Hashable]:
        """The primitive environment actions enabled at *state*."""

    @abstractmethod
    def apply(self, state: GlobalState, action: Hashable) -> GlobalState:
        """Apply one primitive environment action."""

    def apply_many(
        self, state: GlobalState, actions: Iterable[Hashable]
    ) -> GlobalState:
        """Apply a sequence of primitive actions, left to right.

        This is the layer fold of :meth:`repro.layerings.base.Layering.apply`.
        The default folds :meth:`apply`; models whose layers are many
        primitives override it to work on scratch locals and build one
        :class:`GlobalState` at the end.  Either way the result equals the
        one-at-a-time fold, which
        :func:`~repro.layerings.base.verify_layering_embedding` checks.
        """
        for action in actions:
            state = self.apply(state, action)
        return state

    @abstractmethod
    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """Processes *failed at* this state (faulty in every run through it).

        Models displaying *no finite failure* (the asynchronous ones and
        ``M^mf``) return the empty set for every state (Section 3).
        """

    @abstractmethod
    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        """The defined decision variables: ``{i: d_i}`` for decided *i*."""

    def envs_agree_modulo(
        self, env_x: Hashable, env_y: Hashable, j: int
    ) -> bool:
        """Whether two environment states count as equal for similarity
        with witness *j* (Definition 3.1's ``x_e = y_e`` clause).

        The default is exact equality.  Models whose environment carries
        failure *bookkeeping* about ``j`` itself may refine this — see
        :meth:`repro.models.sync.SynchronousModel.envs_agree_modulo` and
        the Section 6 discussion in DESIGN.md.
        """
        return env_x == env_y

    def initial_states(
        self, value_domain: Sequence[Hashable] = (0, 1)
    ) -> list[GlobalState]:
        """All initial states over a value domain — the paper's ``Con_0``.

        For binary consensus this is the ``2^n`` states of Section 3; the
        environment component is identical across them (the definition of
        ``Con_0`` requires ``x_e = y_e``).
        """
        return [
            self.initial_state(assignment)
            for assignment in product(value_domain, repeat=self.n)
        ]

    def successors(self, state: GlobalState) -> list[tuple[Hashable, GlobalState]]:
        """All ``(action, next_state)`` pairs from *state*."""
        return [(action, self.apply(state, action)) for action in self.actions(state)]

    def nonfaulty_under(self, action: Hashable) -> frozenset[int]:
        """Processes certainly nonfaulty when *action* repeats forever.

        See :meth:`repro.layerings.base.Layering.nonfaulty_under`; the
        model-level default claims every process, which is right for the
        synchronous models (processes always take their round steps; the
        faulty ones are tracked by ``failed_at`` and excluded separately).
        """
        return frozenset(range(self.n))


def deliver_round(
    n: int,
    outgoing: dict[int, dict[int, Hashable]],
    dropped: "callable[[int, int], bool]",
) -> dict[int, dict[int, Hashable]]:
    """Synchronous-round delivery with drops.

    Args:
        n: number of processes.
        outgoing: ``outgoing[sender][dest] = payload`` for this round.
        dropped: predicate ``(sender, dest) -> bool``; True means the
            environment loses that message.

    Returns:
        ``received[dest][sender] = payload`` for every delivered message.
    """
    received: dict[int, dict[int, Hashable]] = {i: {} for i in range(n)}
    for sender, messages in outgoing.items():
        for dest, payload in messages.items():
            if dest == sender:
                raise ValueError(f"process {sender} attempted a self-message")
            if not 0 <= dest < n:
                raise ValueError(f"message to unknown destination {dest}")
            if not dropped(sender, dest):
                received[dest][sender] = payload
    return received
