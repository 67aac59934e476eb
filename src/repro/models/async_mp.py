"""The asynchronous message-passing model (Section 5.1).

Messages in transit live in the environment's local state as per-channel
FIFO queues.  A *local phase* of process ``i`` — the unit both asynchronous
layerings schedule — consists of three primitive operations:

* ``("stage", i)`` — ``i`` computes, per its protocol, the messages of
  this phase (at most one per destination) **from its phase-start local
  state** and parks them in its outbox;
* ``("recv", i)`` — *all* outstanding messages addressed to ``i`` are
  delivered at once and ``i``'s protocol transition fires (an empty
  delivery is a legal step);
* ``("flush", i)`` — the outbox contents enter the in-transit bag.

Why three primitives and why phase-start message content: the permutation
layering's *concurrent pair* — "first both of them receive their incoming
messages, and each of them sends his messages only after the other has
received its current phase messages" — requires the two processes' sends
to be unaffected by their current-phase deliveries and invisible to each
other's current-phase receives.  This mirrors immediate snapshots exactly
(a write's value is fixed before the snapshot it precedes), and it is the
semantics under which the paper's similarity claims
``x[..p_k, p_{k+1}..] ~s x[..{p_k, p_{k+1}}..] ~s x[..p_{k+1}, p_k..]``
are theorems: under "sends may depend on the same phase's delivery" the
pair schedule would perturb *every* later process's state, not just one.
A sequential phase is ``stage(i), recv(i), flush(i)``; the concurrent pair
is ``stage(p), stage(q), recv(p), recv(q), flush(p), flush(q)``.

Similarity refinement (see DESIGN.md): when two global states are compared
"modulo j" (Definition 3.1), in-transit messages *addressed to* ``j`` are
accounted to ``j`` rather than to the environment —
:meth:`AsyncMessagePassingModel.envs_agree_modulo` compares the bags with
``j``'s incoming channels removed.  This is sound for the crash-display
argument of Lemma 3.3: once ``j`` is crashed in both runs, its incoming
channels are never consumed and can never influence any other process.
Without the refinement the pair-schedule similarity claims fail on the
nose (the swapped message sits undelivered in one state's bag), which the
extended abstract does not spell out.

Crashes are scheduling phenomena (a process simply stops being scheduled),
so the model displays no finite failure.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.state import GlobalState
from repro.models.base import PrefixFoldModel, ProtocolTables
from repro.protocols.base import MessageBatch, MessagePassingProtocol

NO_OUTBOX = None
"""Outbox marker: nothing staged (the process is between phases)."""


def mp_env(bag: tuple) -> tuple:
    """The environment state: the canonicalised in-transit message bag.

    ``bag`` is a sorted tuple of ``((sender, dest), payloads)`` entries
    where ``payloads`` is the FIFO tuple of undelivered messages on that
    channel.  Channels with no pending messages are omitted, keeping the
    representation canonical (equal bags compare equal).
    """
    return ("mp", tuple(bag))


def stage_action(i: int) -> tuple:
    """Process *i* computes and parks its phase's messages (no sending)."""
    return ("stage", i)


def recv_action(i: int) -> tuple:
    """All outstanding messages to *i* are delivered; its transition fires."""
    return ("recv", i)


def flush_action(i: int) -> tuple:
    """Process *i*'s parked messages enter the in-transit bag."""
    return ("flush", i)


class AsyncMessagePassingModel(PrefixFoldModel):
    """The asynchronous MP model driving a :class:`MessagePassingProtocol`."""

    KINDS = ("stage", "recv", "flush")

    def __init__(self, protocol: MessagePassingProtocol, n: int) -> None:
        super().__init__(n)
        self._protocol = protocol

    def _layout(self) -> dict:
        """Also the channel labels of a scratch bag, channel ``(sender,
        dest)`` at index ``sender * n + dest``, an empty column of the
        bag, and whom each process may send to."""
        n = self._n
        channels = [(s, d) for s in range(n) for d in range(n)]
        return {
            **super()._layout(),
            "_channels": channels,
            "_no_mail": (0,) * n,
            "_peers": [frozenset(range(n)) - {i} for i in range(n)],
        }

    @property
    def protocol(self) -> MessagePassingProtocol:
        return self._protocol

    # -- Model -------------------------------------------------------------
    def initial_state(self, inputs: Sequence[Hashable]) -> GlobalState:
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        locals_ = tuple(
            ("amp", self._protocol.initial_local(i, self.n, value), NO_OUTBOX)
            for i, value in enumerate(inputs)
        )
        return GlobalState(mp_env(()), locals_)

    def bag(self, state: GlobalState) -> dict[tuple[int, int], tuple]:
        """The in-transit messages as ``{(sender, dest): payload FIFO}``."""
        tag, entries = state.env
        if tag != "mp":
            raise ValueError(f"not an async-MP state: {state.env!r}")
        return dict(entries)

    def proto_local(self, state: GlobalState, i: int) -> Hashable:
        """Process *i*'s protocol-level local state (unwrapped)."""
        return state.local(i)[1]

    def outbox(self, state: GlobalState, i: int):
        """The staged-but-unsent messages of *i*, or ``NO_OUTBOX``."""
        return state.local(i)[2]

    def at_phase_boundary(self, state: GlobalState) -> bool:
        """True iff no process holds staged messages."""
        return all(self.outbox(state, i) is NO_OUTBOX for i in range(self.n))

    def pending_for(self, state: GlobalState, i: int) -> dict[int, tuple]:
        """Outstanding messages addressed to *i*: ``{sender: payloads}``."""
        return {
            sender: payloads
            for (sender, dest), payloads in self.bag(state).items()
            if dest == i
        }

    def actions(self, state: GlobalState) -> list[tuple]:
        out = []
        for i in range(self.n):
            out.append(recv_action(i))
            if self.outbox(state, i) is NO_OUTBOX:
                out.append(stage_action(i))
            else:
                out.append(flush_action(i))
        return out

    def _enter(self, tables: ProtocolTables, env: Hashable) -> list[int]:
        """The scratch bag of *env*: per channel, the id of its entry
        ``((sender, dest), payloads)``, or 0 if it is empty."""
        tag, entries = env
        if tag != "mp":
            raise ValueError(f"not an async-MP state: {env!r}")
        n, intern = self._n, tables.intern_value
        chans = [0] * (n * n)
        for entry in entries:
            sender, dest = entry[0]
            chans[sender * n + dest] = intern(entry)
        return chans

    def _seal(self, entries: Sequence, chans: Sequence[int]) -> tuple:
        """The canonical bag of a scratch bag: its nonempty channels'
        entries, in ascending ``(sender, dest)`` order."""
        return mp_env(tuple(map(entries.__getitem__, filter(None, chans))))

    def _fold(
        self, tables: ProtocolTables, ids_in: Sequence, chans_in: Sequence,
        actions: Sequence[tuple],
    ) -> tuple[list, list]:
        """:func:`prefix_fold`'s fold: *actions* from scratch ids and bag.

        ``tables.phase`` maps a local id to the id its stage (its
        outbox empty) leads to, ``tables.step`` a local id and the entry
        ids of its incoming channels to the id after ``transition``, and
        ``tables.write`` a local id (its outbox full) and the entry ids
        of its outgoing channels to the id after its flush and the
        channels' new entry ids.  So for as long as *tables* live, each
        process's ``outgoing`` runs once per local state it stages from,
        and its ``transition`` once per local state and delivery.
        """
        n, protocol = self._n, self._protocol
        locals_, phase, step = tables.locals, tables.phase, tables.step
        ids, chans = list(ids_in), list(chans_in)
        for action in actions:
            kind, i = action
            local_id = ids[i]
            if kind == "stage":
                _, proto_local, outbox = locals_[local_id]
                if outbox is not NO_OUTBOX:
                    raise ValueError(
                        f"process {i} already has staged messages"
                    )
                next_id = phase.get(local_id)
                if next_id is None:
                    outgoing = protocol.outgoing(i, n, proto_local)
                    peers = self._peers[i]
                    if not peers.issuperset(outgoing):
                        if i in outgoing:
                            raise ValueError(
                                f"process {i} attempted a self-message"
                            )
                        stray = [d for d in outgoing if d not in peers]
                        raise ValueError(
                            f"message to unknown destination {stray[0]!r}"
                        )
                    next_id = phase[local_id] = tables.intern(
                        i, ("amp", proto_local, tuple(sorted(outgoing.items())))
                    )
            elif kind == "recv":
                # The incoming channels, senders in ascending order.
                key = (local_id, tuple(chans[i::n]))
                next_id = step.get(key)
                if next_id is None:
                    _, proto_local, outbox = locals_[local_id]
                    entries = tables.values
                    new_proto = protocol.transition(
                        i, n, proto_local,
                        {
                            sender: MessageBatch(entries[entry][1])
                            for sender, entry in enumerate(key[1])
                            if entry
                        },
                    )
                    next_id = step[key] = tables.intern(
                        i, ("amp", new_proto, outbox)
                    )
                chans[i::n] = self._no_mail
            elif kind == "flush":
                _, proto_local, outbox = locals_[local_id]
                if outbox is NO_OUTBOX:
                    raise ValueError(
                        f"process {i} has no staged messages to flush"
                    )
                row = i * n
                key = (local_id, tuple(chans[row:row + n]))
                write = tables.write
                entry = write.get(key)
                if entry is None:
                    entries, sent = tables.values, list(key[1])
                    for dest, payload in outbox:
                        queue = entries[sent[dest]][1] if sent[dest] else ()
                        # Idempotent channel compression: consecutive
                        # identical undelivered payloads collapse into
                        # one.  Without this, a protocol that keeps
                        # gossiping a stabilized value at a
                        # never-scheduled process grows the channel
                        # without bound and no exhaustive analysis
                        # terminates.  The quotient is faithful for the
                        # monotone-emission protocols this library ships
                        # (a sender's successive payloads change only
                        # when its state does), and it only ever merges
                        # *adjacent equal* messages, so FIFO order and
                        # message distinctness are preserved.
                        if not (queue and queue[-1] == payload):
                            sent[dest] = tables.intern_value(
                                (self._channels[row + dest], queue + (payload,))
                            )
                    entry = write[key] = (
                        tables.intern(i, ("amp", proto_local, NO_OUTBOX)),
                        tuple(sent),
                    )
                next_id, chans[row:row + n] = entry
            else:
                raise ValueError(f"unknown async-MP action {action!r}")
            ids[i] = next_id
        return ids, chans

    def local_phase(self, state: GlobalState, i: int) -> GlobalState:
        """One complete sequential local phase of *i* (Section 5.1)."""
        return self.apply_many(
            state, (stage_action(i), recv_action(i), flush_action(i))
        )

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """The asynchronous model displays no finite failure."""
        return frozenset()

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        """Only the acting process is certainly nonfaulty if this single
        primitive repeats forever; everyone else would be crashed."""
        _, i = action
        return frozenset({i})

    def envs_agree_modulo(self, env_x, env_y, j: int) -> bool:
        """Bag equality with *j*'s incoming channels discounted.

        See the module docstring: messages in transit *to* ``j`` are
        information only ``j`` can ever observe, so for similarity with
        witness ``j`` they are accounted to ``j``'s side of the
        comparison, not the environment's.
        """
        tag_x, entries_x = env_x
        tag_y, entries_y = env_y
        if tag_x != "mp" or tag_y != "mp":
            return env_x == env_y
        strip = lambda entries: {  # noqa: E731
            channel: payloads
            for channel, payloads in entries
            if channel[1] != j
        }
        return strip(entries_x) == strip(entries_y)

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        out = {}
        for i in range(self.n):
            value = self._protocol.decision(i, self.n, self.proto_local(state, i))
            if value is not None:
                out[i] = value
        return out
