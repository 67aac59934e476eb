"""The ``t``-resilient synchronous message-passing model (Section 6).

The standard synchronous model with a bound ``t`` on the total number of
faulty processes per run.  Following the paper's Section 6 failure model:

(i)   in the first round in which a process fails, the environment blocks
      the delivery of an arbitrary subset of its messages;
(ii)  the environment silences a faulty process forever in all rounds
      after the first one in which it fails (we adopt the "silence
      forever" option uniformly — it is exactly what the layering ``S^t``
      uses, and it only strengthens lower-bound results);
(iii) the environment's local state keeps track of the processes that
      have failed.

A failed process keeps *receiving* and computing (send-omission
semantics); only its outgoing messages are suppressed.  Its decisions are
excluded from agreement/validity/valence accounting by ``failed_at``.

A primitive environment action is the set of *new* failures this round:
a frozenset of ``(j, G)`` pairs where ``j`` is a non-failed process and
``G`` (nonempty) is the set of destinations whose messages from ``j`` are
lost this round.  The action is legal when the total failure count stays
within ``t``.  The empty set is the failure-free round.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Optional
from itertools import combinations

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


def sync_env(failed: frozenset[int] = frozenset()) -> tuple:
    """The environment state of the synchronous model: the failed set."""
    return ("sync", frozenset(failed))


def fail_action(*failures: tuple[int, frozenset[int]]) -> frozenset:
    """Build a new-failures action from ``(process, blocked_set)`` pairs."""
    return frozenset(
        (j, frozenset(group)) for j, group in failures
    )


NO_FAILURE: frozenset = frozenset()


class SynchronousModel(Model):
    """The ``t``-resilient synchronous model driving an MP protocol.

    Args:
        protocol: the deterministic protocol under analysis.
        n: number of processes (the paper's Section 6 assumes
            ``1 <= t <= n - 2``, hence ``n >= 3``).
        t: resilience bound — at most ``t`` processes fail per run.
        clean_crashes_only: if True, a newly failing process omits to
            *all* destinations at once (classic clean crash).  This shrinks
            the action space for exhaustive verification sweeps; the
            default False allows arbitrary first-round omission subsets as
            the paper's model does.
    """

    def __init__(
        self,
        protocol: MessagePassingProtocol,
        n: int,
        t: int,
        clean_crashes_only: bool = False,
    ) -> None:
        super().__init__(n)
        if not 1 <= t <= n - 1:
            raise ValueError(f"resilience t={t} out of range 1..{n - 1}")
        self._protocol = protocol
        self._t = t
        self._clean = clean_crashes_only
        self._blocked = tuple(self._blocked_sets(j) for j in range(n))

    @property
    def protocol(self) -> MessagePassingProtocol:
        return self._protocol

    @property
    def t(self) -> int:
        return self._t

    # -- Model -------------------------------------------------------------
    def initial_state(self, inputs: Sequence[Hashable]) -> GlobalState:
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        locals_ = tuple(
            self._protocol.initial_local(i, self.n, value)
            for i, value in enumerate(inputs)
        )
        return GlobalState(sync_env(), locals_)

    def _failed(self, state: GlobalState) -> frozenset[int]:
        tag, failed = state.env
        if tag != "sync":
            raise ValueError(f"not a synchronous-model state: {state.env!r}")
        return failed

    def _blocked_sets(self, j: int) -> list[frozenset[int]]:
        """Legal first-round blocked sets for a newly failing process."""
        others = [i for i in range(self.n) if i != j]
        if self._clean:
            return [frozenset(others)]
        sets = []
        for mask in range(1, 1 << len(others)):
            sets.append(
                frozenset(others[b] for b in range(len(others)) if mask >> b & 1)
            )
        return sets

    def actions(self, state: GlobalState) -> list[frozenset]:
        failed = self._failed(state)
        alive = [i for i in range(self.n) if i not in failed]
        budget = self._t - len(failed)
        out: list[frozenset] = [NO_FAILURE]
        for count in range(1, budget + 1):
            for group in combinations(alive, count):
                out.extend(
                    self._expand_blocked_choices(group)
                )
        return out

    def _expand_blocked_choices(
        self, newly_failing: tuple[int, ...]
    ) -> list[frozenset]:
        """All assignments of blocked sets to the newly failing processes."""
        choices: list[list[tuple[int, frozenset[int]]]] = [[]]
        for j in newly_failing:
            choices = [
                partial + [(j, blocked)]
                for partial in choices
                for blocked in self._blocked[j]
            ]
        return [frozenset(choice) for choice in choices]

    def apply(self, state: GlobalState, action: frozenset) -> GlobalState:
        return self.apply_each(state, ((action,),))[0]

    def compile(self, expansions: Iterable[Iterable[frozenset]]) -> RoundProgram:
        return round_program(expansions)

    def run(
        self,
        state: GlobalState,
        program: RoundProgram,
        tables: Optional[ProtocolTables] = None,
    ) -> list[GlobalState]:
        """One synchronous round from *state* for every expansion.

        Each distinct new-failures action is checked and applied once;
        see :func:`repro.models.base.synchronous_round`.  Its check and
        outcome read only the failed set, the environment, so *tables*
        keep them for every later state with that failed set.
        """
        failed = self._failed(state)

        def round_for(action: frozenset) -> RoundOutcome:
            new_failures = dict(action)
            if any(j in failed for j in new_failures):
                raise ValueError("action re-fails an already failed process")
            if len(failed) + len(new_failures) > self._t:
                raise ValueError(
                    f"action exceeds the resilience bound t={self._t}"
                )
            # A failed process is silenced forever after its first faulty
            # round; a newly failing one loses its blocked destinations.
            lost = tuple(
                failed.union(
                    j for j, blocked in new_failures.items() if dest in blocked
                )
                for dest in range(self.n)
            )
            return sync_env(failed | frozenset(new_failures)), lost

        return synchronous_round(
            self, self._protocol, state, program, round_for, tables
        )

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """The recorded failed set — observable in this model (Section 6)."""
        return self._failed(state)

    def nonfaulty_under(self, action: frozenset) -> frozenset[int]:
        """Processes newly failed by *action* are faulty; the rest, if not
        already recorded failed (checked separately against the cycle's
        states), stay nonfaulty."""
        newly = {j for j, _ in action}
        return frozenset(i for i in range(self.n) if i not in newly)

    def envs_agree_modulo(self, env_x, env_y, j: int) -> bool:
        """Environment agreement for similarity witness *j* (see DESIGN.md).

        The environment here is pure failure bookkeeping.  Whether *j*
        itself is recorded failed is irrelevant to every other process's
        local state, so the records are compared with *j* discounted —
        this is the precise form of "Lemma 5.1 in its version for this
        model" (Lemmas 6.1/6.2) that the extended abstract leaves
        implicit.

        Note that similarity alone does **not** guarantee a shared
        valence: that needs the crash-display property (Lemma 3.3), whose
        silencing continuation requires the budget to allow failing *j*
        (``|failed ∪ {j}| <= t``) — at the budget edge
        :func:`repro.core.faulty.check_crash_display` correctly reports
        the display failing, and Lemma 6.2's use of similarity survives
        because its argument runs through agreement directly, not through
        crash display.
        """
        tag_x, failed_x = env_x
        tag_y, failed_y = env_y
        if tag_x != "sync" or tag_y != "sync":
            return env_x == env_y
        return (failed_x - {j}) == (failed_y - {j})

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        out = {}
        for i in range(self.n):
            value = self._protocol.decision(i, self.n, state.local(i))
            if value is not None:
                out[i] = value
        return out
