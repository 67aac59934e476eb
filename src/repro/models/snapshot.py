"""Atomic-snapshot shared memory (the paper's announced extension).

The paper closes Section 7 with: "In the full paper we use the same
techniques to extend the equivalence to snapshot shared memory [2],
iterated immediate snapshot [6], and related models."  This module is the
snapshot substrate: single-writer cells plus an atomic ``scan`` returning
all cells at once — the [Afek et al.] object, here primitive (the classic
result that snapshots are implementable from r/w registers is exactly why
the paper can treat the models interchangeably).

Primitive environment actions:

* ``("update", i)`` — process ``i`` writes its protocol's phase value to
  cell ``i`` (a no-op write when the protocol returns None);
* ``("scan", i)`` — process ``i`` atomically reads all cells and its
  protocol transition fires.

A local phase is one update then one scan; the wrapper tracks which is
next.  Protocols use the same :class:`SharedMemoryProtocol` interface as
``M^rw`` (``write_value`` / ``after_reads``) — the scan plays the role of
the full collect, but *atomically*: no writes interleave mid-collect,
which is the one semantic difference from :mod:`repro.models.shared_memory`
and the reason immediate-snapshot blocks see each other's updates.

The model displays no finite failure (crashes are scheduling phenomena).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.state import GlobalState
from repro.models.base import PrefixFoldModel, ProtocolTables
from repro.protocols.base import SharedMemoryProtocol

BOT: str = "⊥"


def snapshot_env(cells: tuple) -> tuple:
    """The environment state: the snapshot object's cell array."""
    return ("snap", tuple(cells))


def update_action(i: int) -> tuple:
    """Process *i* writes its phase value to cell *i*."""
    return ("update", i)


def scan_action(i: int) -> tuple:
    """Process *i* atomically reads all cells; its transition fires."""
    return ("scan", i)


class SnapshotMemoryModel(PrefixFoldModel):
    """Snapshot shared memory driving a :class:`SharedMemoryProtocol`."""

    KINDS = ("update", "scan")

    def __init__(self, protocol: SharedMemoryProtocol, n: int) -> None:
        super().__init__(n)
        self._protocol = protocol

    @property
    def protocol(self) -> SharedMemoryProtocol:
        return self._protocol

    # -- Model -------------------------------------------------------------
    def initial_state(self, inputs: Sequence[Hashable]) -> GlobalState:
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        locals_ = tuple(
            ("sn", self._protocol.initial_local(i, self.n, value), "update")
            for i, value in enumerate(inputs)
        )
        return GlobalState(snapshot_env((BOT,) * self.n), locals_)

    def cells(self, state: GlobalState) -> tuple:
        """The snapshot object's cells (cell ``i`` writable only by *i*)."""
        tag, cells = state.env
        if tag != "snap":
            raise ValueError(f"not a snapshot-memory state: {state.env!r}")
        return cells

    def proto_local(self, state: GlobalState, i: int) -> Hashable:
        """Process *i*'s protocol-level local state (unwrapped)."""
        return state.local(i)[1]

    def pending_op(self, state: GlobalState, i: int) -> str:
        """The next primitive of process *i*: "update" or "scan"."""
        return state.local(i)[2]

    def at_phase_boundary(self, state: GlobalState) -> bool:
        """True iff every process is between local phases."""
        return all(
            self.pending_op(state, i) == "update" for i in range(self.n)
        )

    def actions(self, state: GlobalState) -> list[tuple]:
        return [
            (self.pending_op(state, i), i) for i in range(self.n)
        ]

    def _enter(self, tables: ProtocolTables, env: Hashable) -> list[int]:
        """The scratch cells of *env*: one value id per cell."""
        tag, cells = env
        if tag != "snap":
            raise ValueError(f"not a snapshot-memory state: {env!r}")
        return tables.intern_values(cells)

    def _seal(self, values: Sequence, cells: Sequence[int]) -> tuple:
        """The cell array of scratch cells."""
        return snapshot_env(tuple(map(values.__getitem__, cells)))

    def _fold(
        self, tables: ProtocolTables, ids_in: Sequence, cells_in: Sequence,
        actions: Sequence[tuple],
    ) -> tuple[list, list]:
        """:func:`prefix_fold`'s fold: *actions* from scratch ids and cells.

        ``tables.phase`` maps the local id before an update to the value
        id written (None: no write) and the id after it, and
        ``tables.step`` a local id and the cells' value ids to the id
        after ``after_reads``.  So for as long as *tables* live, each
        process's ``write_value`` runs once per local state, and its
        ``after_reads`` once per local state and scan.
        """
        n, protocol = self._n, self._protocol
        locals_, values = tables.locals, tables.values
        phase, step = tables.phase, tables.step
        ids, cells = list(ids_in), list(cells_in)
        for action in actions:
            kind, i = action
            local_id = ids[i]
            _, proto_local, pending = locals_[local_id]
            if kind != pending:
                raise ValueError(
                    f"process {i} must {pending} next, cannot {kind}"
                )
            if kind == "update":
                entry = phase.get(local_id)
                if entry is None:
                    value = protocol.write_value(i, n, proto_local)
                    entry = phase[local_id] = (
                        None if value is None else tables.intern_value(value),
                        tables.intern(i, ("sn", proto_local, "scan")),
                    )
                value_id, ids[i] = entry
                if value_id is not None:
                    cells[i] = value_id
            elif kind == "scan":
                key = (local_id, tuple(cells))
                next_id = step.get(key)
                if next_id is None:
                    scanned = tuple(map(values.__getitem__, key[1]))
                    next_id = step[key] = tables.intern(
                        i,
                        (
                            "sn",
                            protocol.after_reads(i, n, proto_local, scanned),
                            "update",
                        ),
                    )
                ids[i] = next_id
            else:
                raise ValueError(
                    f"unknown snapshot-model action {action!r}"
                )
        return ids, cells

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """Snapshot memory displays no finite failure."""
        return frozenset()

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Only the acting process is certainly nonfaulty if this single
        primitive repeats forever."""
        _, i = action
        return frozenset({i})

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        out = {}
        for i in range(self.n):
            value = self._protocol.decision(i, self.n, self.proto_local(state, i))
            if value is not None:
                out[i] = value
        return out
