"""The asynchronous read/write shared-memory model ``M^rw`` (Section 5.1).

Single-writer/multiple-reader registers: register ``i`` is writable only by
process ``i`` and readable by everyone.  The registers are part of the
*environment's* local state (the paper stresses this: to analyze the round
by round evolution we must carry the current shared values in the global
state — "we are going slightly beyond the scope of most of the recent work
on topological approaches").

A *local phase* of process ``i`` is at most one ``write_i`` followed by a
maximal sequence of reads with no register read twice (Section 5.1).  We
fix the read sequence to registers ``0..n-1`` in index order (a full
collect).  The primitive environment action is ``("step", i)``: process
``i`` performs the next operation of its current phase.  Reads and writes
are instantaneous; asynchrony is entirely in the interleaving the
environment chooses.  The synchronic layering ``S^rw`` composes these
primitives into the four-stage virtual rounds ``W1, R1, W2, R2``.

A crash is a *scheduling* phenomenon — the crashed process simply stops
being stepped — so ``failed_at`` is empty at every state: the model
displays no finite failure (Section 3), as in FLP-style analyses.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.state import GlobalState
from repro.models.base import PrefixFoldModel, ProtocolTables
from repro.protocols.base import SharedMemoryProtocol

BOT: str = "⊥"
"""Initial value of every register (the paper's undefined value)."""


def rw_env(registers: tuple) -> tuple:
    """The environment state of ``M^rw``: the register array."""
    return ("rw", tuple(registers))


def step_action(i: int) -> tuple:
    """The primitive action: process *i* performs its next operation."""
    return ("step", i)


def _wrapper(proto_local: Hashable, stage: int, reads: tuple) -> tuple:
    """Wrap a protocol local state with the phase program counter.

    ``stage == 0``: the next operation is the phase's write.
    ``stage == s`` for ``1 <= s <= n``: the next operation is the read of
    register ``s - 1``; completing the read of register ``n - 1`` also
    completes the phase (the protocol transition fires and the counter
    resets), so ``stage == n`` never survives into a stored state.
    """
    return ("sm", proto_local, stage, reads)


class SharedMemoryModel(PrefixFoldModel):
    """``M^rw`` driving a :class:`SharedMemoryProtocol`."""

    KINDS = ("step",)

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
            _wrapper(self._protocol.initial_local(i, self.n, value), 0, ())
            for i, value in enumerate(inputs)
        )
        return GlobalState(rw_env((BOT,) * self.n), locals_)

    def registers(self, state: GlobalState) -> tuple:
        """The register array (register ``i`` writable only by *i*)."""
        tag, registers = state.env
        if tag != "rw":
            raise ValueError(f"not a shared-memory state: {state.env!r}")
        return registers

    def proto_local(self, state: GlobalState, i: int) -> Hashable:
        """Process *i*'s protocol-level local state (unwrapped)."""
        return state.local(i)[1]

    def stage(self, state: GlobalState, i: int) -> int:
        """The phase program counter of process *i* (0 = phase boundary)."""
        return state.local(i)[2]

    def at_phase_boundary(self, state: GlobalState) -> bool:
        """True iff every process is between local phases.

        The synchronic layering maintains this invariant at layer
        boundaries; several lemma-checks assert it.
        """
        return all(self.stage(state, i) == 0 for i in range(self.n))

    def actions(self, state: GlobalState) -> list[tuple]:
        return [step_action(i) for i in range(self.n)]

    def _enter(self, tables: ProtocolTables, env: Hashable) -> list[int]:
        """The scratch registers of *env*: one value id per register."""
        tag, registers = env
        if tag != "rw":
            raise ValueError(f"not a shared-memory state: {env!r}")
        return tables.intern_values(registers)

    def _seal(self, values: Sequence, registers: Sequence[int]) -> tuple:
        """The register array of scratch registers."""
        return rw_env(tuple(map(values.__getitem__, registers)))

    def _fold(
        self, tables: ProtocolTables, ids_in: Sequence,
        registers_in: Sequence, actions: Sequence[tuple],
    ) -> tuple[list, list]:
        """:func:`prefix_fold`'s fold: *actions* from scratch ids and
        registers.

        ``tables.phase`` maps the local id of a phase's start to the
        value id it writes (None: no write) and the id after the write,
        and ``tables.step`` a local id and the value id of the register
        it reads to the id after the read (after ``after_reads``, for
        the last register).  So for as long as *tables* live, each
        process's ``write_value`` runs once per local state, and its
        ``after_reads`` once per local state and collect.
        """
        n, protocol = self._n, self._protocol
        locals_, values = tables.locals, tables.values
        phase, step = tables.phase, tables.step
        ids, registers = list(ids_in), list(registers_in)
        for action in actions:
            kind, i = action
            if kind != "step":
                raise ValueError(f"unknown M^rw action {action!r}")
            local_id = ids[i]
            _, proto_local, stage, reads = locals_[local_id]
            if stage == 0:
                entry = phase.get(local_id)
                if entry is None:
                    value = protocol.write_value(i, n, proto_local)
                    entry = phase[local_id] = (
                        None if value is None else tables.intern_value(value),
                        tables.intern(i, _wrapper(proto_local, 1, ())),
                    )
                value_id, ids[i] = entry
                if value_id is not None:
                    registers[i] = value_id
                continue
            # A read of register ``stage - 1``.
            key = (local_id, registers[stage - 1])
            next_id = step.get(key)
            if next_id is None:
                new_reads = reads + (values[key[1]],)
                if stage < n:
                    next_local = _wrapper(proto_local, stage + 1, new_reads)
                else:
                    next_local = _wrapper(
                        protocol.after_reads(i, n, proto_local, new_reads),
                        0, (),
                    )
                next_id = step[key] = tables.intern(i, next_local)
            ids[i] = next_id
        return ids, registers

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """``M^rw`` displays no finite failure."""
        return frozenset()

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Only the stepped process is certainly nonfaulty if this single
        primitive repeats forever; everyone else would be crashed."""
        _, i = action
        return frozenset({i})

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        out = {}
        for i in range(self.n):
            value = self._protocol.decision(i, self.n, self.proto_local(state, i))
            if value is not None:
                out[i] = value
        return out
