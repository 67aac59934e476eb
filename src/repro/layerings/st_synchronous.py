"""The layering ``S^t`` for the t-resilient synchronous model (Section 6).

::

    S^t(x) = S_1(x)       if fewer than t processes are failed at x
           = { x(·,[0]) }  otherwise (the unique failure-free successor)

In an ``S^t`` layer at most one process performs an omitting failure (and
is then recorded failed and silenced forever), so long as fewer than ``t``
processes have already failed; after ``t`` failures no more happen.  With
a protocol satisfying decision, ``S^t`` is a layering of the synchronous
model and drives the whole Section 6 lower-bound analysis.

A wrinkle the extended abstract glosses over: the environment's local
state records the failed set (assumption (iii) of Section 6), so the
*literal* similarity chains of Lemma 5.1 — which require exact environment
equality — break between the failure-free successor ``x(·,[0])`` (failed
set unchanged) and the genuine-failure successors ``x(j,[k])`` (failed set
grown by ``j``).  The mechanization makes the workable notion precise:
:meth:`repro.models.sync.SynchronousModel` compares environments *modulo
the similarity witness* (failed-records agree once the witness is
discounted).  Even so, a layer splits into per-failure classes plus the
isolated clean state — full similarity connectivity genuinely fails, and
the Section 6 conclusions rest on the within-class chains instead.  See
``SynchronousModel.envs_agree_modulo`` and DESIGN.md §4b for the complete
account, including why Lemma 6.2 survives.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import combinations

from repro.core.state import GlobalState
from repro.layerings.base import Layering
from repro.models.sync import NO_FAILURE, SynchronousModel, sync_env

#: The layer key of every state at which ``t`` processes have failed: its
#: layer is the failure-free round, whoever failed.
SATURATED = "saturated"


def st_action(j: int, k: int) -> tuple:
    """The ``S^t`` layer action label ``(j, [k])`` (0-based prefix)."""
    return ("st", j, k)


class StSynchronousLayering(Layering):
    """``S^t`` over :class:`repro.models.sync.SynchronousModel`."""

    def __init__(self, model: SynchronousModel) -> None:
        if not isinstance(model, SynchronousModel):
            raise TypeError("S^t is a layering of the synchronous model")
        super().__init__(model)
        # The layer reads only the failed set (layer_key): compile one per
        # failed set of fewer than t processes, and the saturated one.
        failed_sets = [
            frozenset(failed)
            for size in range(self.t)
            for failed in combinations(range(self.n), size)
        ]
        failed_sets.append(frozenset(range(self.t)))
        self._compile_layers(
            GlobalState(sync_env(failed)) for failed in failed_sets
        )

    @property
    def t(self) -> int:
        return self.model.t

    def layer_key(self, state: GlobalState) -> Hashable:
        """The failed set, or :data:`SATURATED` once ``t`` have failed."""
        failed = self.model.failed_at(state)
        return failed if len(failed) < self.t else SATURATED

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        failed = self.model.failed_at(state)
        if len(failed) >= self.t:
            return [st_action(0, 0)]
        return [
            st_action(j, k)
            for j in range(self.n)
            for k in range(self.n + 1)
        ]

    def expand(self, state: GlobalState, action: tuple) -> Sequence:
        tag, j, k = action
        if tag != "st":
            raise ValueError(f"not an S^t action: {action!r}")
        return (self.primitive_for(state, action),)

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Repeating ``(j,[k])`` forever keeps every process but (at most)
        ``j`` nonfaulty; whether ``j`` is actually failed depends on the
        state (effective blocked set, prior failure), which the lasso
        check accounts for separately via ``failed_at``."""
        _, j, k = action
        if frozenset(range(k)) - {j}:
            return frozenset(i for i in range(self.n) if i != j)
        return frozenset(range(self.n))

    def primitive_for(self, state: GlobalState, action: tuple) -> frozenset:
        """Map ``(j,[k])`` to the synchronous model's new-failures action.

        The *effective* blocked set is ``{0..k-1} \\ {j}`` (a process sends
        no message to itself, so including ``j`` in the prefix loses
        nothing).  If it is empty, or ``j`` is already failed (hence
        silenced — prefix omissions add nothing), the layer action is the
        failure-free round: no process is *recorded* as newly faulty,
        matching the paper's rule that only a process some of whose
        messages are actually lost counts as faulty.
        """
        _, j, k = action
        failed = self.model.failed_at(state)
        effective = frozenset(range(k)) - {j}
        if not effective or j in failed:
            return NO_FAILURE
        return frozenset({(j, effective)})
