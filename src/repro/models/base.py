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
from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import product
from typing import Any, NamedTuple, Optional

from repro.core.state import GlobalState
from repro.protocols.base import MessagePassingProtocol


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
        primitives override it as ``apply_each(state, [actions])[0]``,
        which works on scratch locals and builds one :class:`GlobalState`
        at the end (:class:`PrefixFoldModel`).  Either way the result
        equals the one-at-a-time fold, which
        :func:`~repro.layerings.base.verify_layering_embedding` checks.
        """
        for action in actions:
            state = self.apply(state, action)
        return state

    def compile(self, expansions: Iterable[Iterable[Hashable]]) -> Any:
        """A layer program: *expansions* prepared once for :meth:`run`.

        A layering compiles each of its layers once, in its constructor,
        and runs the program at every state that has that layer (see
        :meth:`repro.layerings.base.Layering.successors`).  Compiling
        reads no state and checks nothing; every legality check happens
        in :meth:`run`.  The default program is the expansions as tuples.
        """
        return tuple(tuple(expansion) for expansion in expansions)

    def run(
        self,
        state: GlobalState,
        program: Any,
        tables: Optional["ProtocolTables"] = None,
    ) -> list[GlobalState]:
        """The endpoint of each compiled expansion, every one from *state*.

        The default folds each expansion through :meth:`apply_many`.
        Every model in this library overrides :meth:`compile` and this to
        share work across the layer: the round models compute one
        synchronous round per state (:func:`synchronous_round`), and the
        asynchronous models step each distinct prefix once
        (:func:`prefix_fold`).

        *tables* (:class:`ProtocolTables`) carry work across states.
        :meth:`repro.layerings.base.Layering.successors` passes the
        layering's own, built empty with it and kept as long as it
        lives, and every model of this library reads and fills them:
        the :func:`prefix_fold` models run each protocol call once per
        distinct input and make equal endpoints one object, and the
        round models check and resolve each primitive once per
        environment (:func:`synchronous_round`).  With None, the default
        of :meth:`apply`, :meth:`apply_many` and :meth:`apply_each`, the
        tables are of this call alone, so the per-primitive path that
        RP202 compares against stays independent of any search, and so
        does :meth:`repro.layerings.base.Layering.cold`, the view the
        contract checks call.  RP202 steps each distinct prefix of a
        sampled state's layer once through :meth:`apply` and compares
        each endpoint with what this returned for that expansion
        (:func:`~repro.layerings.base.embedding_trace`).  The program
        itself is read only.
        """
        return [self.apply_many(state, expansion) for expansion in program]

    def apply_each(
        self, state: GlobalState, expansions: Iterable[Iterable[Hashable]]
    ) -> list[GlobalState]:
        """The endpoint of each expansion, every one folded from *state*:
        :meth:`compile`, then :meth:`run` with tables of this call."""
        return self.run(state, self.compile(expansions))

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


#: A primitive's round: the successor's environment, and for each
#: destination the senders whose message to it the primitive loses.
RoundOutcome = tuple[Hashable, Sequence[frozenset[int]]]


class RoundProgram(NamedTuple):
    """A layer compiled for :func:`synchronous_round`."""

    #: The distinct one-primitive expansions' primitives, in the order
    #: the expansions first name them.
    primitives: tuple[Hashable, ...]
    #: Per expansion, its primitive's index in ``primitives``, or None
    #: for an expansion that is not exactly one primitive.
    picks: tuple[tuple[Optional[int], tuple[Hashable, ...]], ...]


def round_program(expansions: Iterable[Iterable[Hashable]]) -> RoundProgram:
    """:meth:`Model.compile` for a model whose primitive is one round."""
    slots: dict[Hashable, int] = {}
    picks = []
    for expansion in expansions:
        expansion = tuple(expansion)
        slot = None
        if len(expansion) == 1:
            slot = slots.setdefault(expansion[0], len(slots))
        picks.append((slot, expansion))
    return RoundProgram(tuple(slots), tuple(picks))


def synchronous_round(
    model: Model,
    protocol: MessagePassingProtocol,
    state: GlobalState,
    program: RoundProgram,
    round_for: Callable[[Hashable], RoundOutcome],
    tables: Optional["ProtocolTables"] = None,
) -> list[GlobalState]:
    """:meth:`Model.run` for a model whose primitive is one round.

    In a synchronous round every process sends, then every process
    receives.  A sender's messages depend only on its own local state, and
    a receiver's next local state only on which senders it hears from, so
    one round serves every primitive enabled at *state*:

    * each sender's ``outgoing`` runs once;
    * each receiver's ``transition`` runs once per distinct set of senders
      it hears from;
    * each distinct primitive is applied once, and the expansions naming
      it share its endpoint object.

    ``round_for(primitive)`` checks that the primitive is legal at *state*
    (raising ``ValueError`` if not) and returns its :data:`RoundOutcome`.
    It must read nothing of *state* but its environment: each outcome is
    filed under the state's environment and the primitive, in *tables*
    (:class:`ProtocolTables`) when given, else in a table local to this
    call, and read back instead of calling ``round_for`` again.  So with
    *tables* every later state with that environment reuses the outcome,
    and with None ``round_for`` runs at every state, once per distinct
    primitive of *program* (:func:`round_program`).  A primitive that
    ``round_for`` refuses is never filed, so it raises at every state.
    The primitives are resolved before any protocol call.  An expansion
    that is not exactly one primitive is folded by
    :meth:`Model.apply_many`.

    The sender and receiver memos are locals of this call: they live for
    one state's round.

    Raises:
        ValueError: a process sends to itself or to an unknown
            destination, or ``round_for`` refuses a primitive.
    """
    filed = {} if tables is None else tables.rounds.setdefault(state.env, {})
    rounds = []
    for primitive in program.primitives:
        outcome = filed.get(primitive)
        if outcome is None:
            outcome = filed[primitive] = round_for(primitive)
        rounds.append(outcome)
    endpoints: list[GlobalState] = []
    if rounds:
        n, locals_ = state.n, state.locals
        outgoing = [
            protocol.outgoing(sender, n, locals_[sender])
            for sender in range(n)
        ]
        hearing: list[set[int]] = [set() for _ in range(n)]
        for sender, messages in enumerate(outgoing):
            for dest in messages:
                if dest == sender:
                    raise ValueError(
                        f"process {sender} attempted a self-message"
                    )
                if not 0 <= dest < n:
                    raise ValueError(f"message to unknown destination {dest}")
                hearing[dest].add(sender)
        senders_to = [frozenset(senders) for senders in hearing]
        # heard[dest]: delivered senders -> dest's next local state.
        heard: list[dict[frozenset[int], Hashable]] = [{} for _ in range(n)]
        for env, lost in rounds:
            new_locals = []
            for dest in range(n):
                delivered = senders_to[dest] - lost[dest]
                memo = heard[dest]
                if delivered in memo:
                    new_locals.append(memo[delivered])
                    continue
                received = {
                    sender: outgoing[sender][dest]
                    for sender in sorted(delivered)
                }
                new_local = protocol.transition(
                    dest, n, locals_[dest], received
                )
                memo[delivered] = new_local
                new_locals.append(new_local)
            endpoints.append(GlobalState(env, tuple(new_locals)))
    return [
        model.apply_many(state, expansion) if slot is None else endpoints[slot]
        for slot, expansion in program.picks
    ]


#: The key under which a :func:`prefix_program` tree node lists the
#: expansions that end there (no primitive equals it).
_ENDS = object()


class PrefixProgram(NamedTuple):
    """A layer compiled for :func:`prefix_fold`: its prefix tree, flat."""

    #: How many expansions the program folds.
    count: int
    #: ``(source, primitives, ends)`` per step, in run order: step ``k``
    #: folds *primitives* from the scratch of slot *source* into slot
    #: ``k + 1`` (slot 0 is the state itself), and *ends* lists the
    #: expansions whose endpoint that is.
    steps: tuple[tuple[int, tuple[Hashable, ...], tuple[int, ...]], ...]


def prefix_program(expansions: Iterable[Iterable[Hashable]]) -> PrefixProgram:
    """:meth:`Model.compile` for a model whose layers are many primitives.

    The asynchronous layerings build each layer from the same few local
    phases in different orders, so a layer's expansions share long
    prefixes.  They are filed into a prefix tree keyed by primitive, and
    the tree is flattened into steps, one per edge chain that neither
    branches nor ends inside: each distinct prefix is stepped once.  The
    tree is walked depth first, children in the order their expansions
    first name them, which is the order :func:`prefix_fold` runs the
    steps in.
    """
    # A tree node maps each next primitive to its child node, and _ENDS
    # to the indices of the expansions that end at the node.
    root: dict = {}
    count = 0
    for expansion in expansions:
        node = root
        for primitive in expansion:
            child = node.get(primitive)
            if child is None:
                child = node[primitive] = {}
            node = child
        node.setdefault(_ENDS, []).append(count)
        count += 1

    steps = []
    ends = root.pop(_ENDS, None)
    if ends is not None:
        steps.append((0, (), tuple(ends)))
    # Each pending edge leaves the node whose scratch is in *slot*, then
    # runs along the chain of nodes below it that neither branch nor end.
    pending = [
        (0, primitive, child) for primitive, child in reversed(root.items())
    ]
    while pending:
        slot, primitive, node = pending.pop()
        primitives = [primitive]
        while len(node) == 1 and _ENDS not in node:
            ((primitive, node),) = node.items()
            primitives.append(primitive)
        steps.append((slot, tuple(primitives), tuple(node.pop(_ENDS, ()))))
        slot = len(steps)
        pending.extend(
            (slot, primitive, child) for primitive, child in reversed(node.items())
        )
    return PrefixProgram(count, tuple(steps))


class ProtocolTables:
    """What a layering's models learn about its protocol and its rounds.

    A layering builds one set of tables, empty, in its constructor and
    hands it to every :meth:`Model.run` it makes
    (:meth:`repro.layerings.base.Layering.successors`), so whatever one
    state's fold computed serves every later state of the layering.
    The :func:`prefix_fold` models fill:

    * ``locals`` and ``ids``: each process local state the folds met,
      and the small int it is interned to, its index in ``locals``.
      ``ids`` is keyed by ``(process, local)``.  A fold's scratch holds
      one id per process, never the local states themselves;
    * ``values`` and ``value_ids``: each environment component the
      folds met (a channel's entry, its label and FIFO payload queue;
      a register's or a cell's value), interned the same way, with the
      empty queue ``()`` as id 0 (an empty channel).  A fold's scratch
      environment is one id per component (per channel, per register),
      so it is copied, compared and hashed as a list of small ints;
    * ``phase``: local id -> what a primitive that reads no environment
      gives there (the staged messages of ``outgoing``, the value id of
      ``write_value``), with the id it leads to;
    * ``step``: ``(local id, ids read)`` -> the id a primitive that
      reads the environment leads to (``transition`` on a delivery,
      ``after_reads`` on a scan, one read of a register);
    * ``write``: ``(local id, ids written)`` -> the id a primitive
      whose write depends on what it overwrites leads to, and the ids
      it leaves there (a flush appends to its sender's channels);
    * ``endpoints``: the scratch ``(*environment ids, *local ids)`` ->
      the one :class:`GlobalState` built for that endpoint.

    Component ids map one-to-one onto components, so a memo keyed by
    ids runs each protocol call once per distinct input, as one keyed
    by the components would.

    The round models (:func:`synchronous_round`) fill ``rounds``:
    environment -> primitive -> its :data:`RoundOutcome` there, for the
    primitives found legal in that environment.

    Each model checks the legality of a primitive on the local state
    before it looks the primitive up, so a memo never stands in for a
    check; a round primitive's legality reads only the environment, and
    an illegal one is never filed.  Sharing a protocol call or a round
    across states is sound only for a deterministic protocol and a round
    that reads nothing but the environment, which is what RP201 samples;
    the contract checks therefore run on a copy of the layering whose
    tables are of one call alone
    (:meth:`repro.layerings.base.Layering.cold`).  Tables never cross
    processes: a pickled layering carries none.
    """

    __slots__ = (
        "ids", "locals", "value_ids", "values", "phase", "step", "write",
        "endpoints", "rounds",
    )

    def __init__(self) -> None:
        self.ids: dict[tuple[int, Hashable], int] = {}
        self.locals: list[Hashable] = []
        self.value_ids: dict[Hashable, int] = {(): 0}
        self.values: list[Hashable] = [()]
        self.phase: dict[int, Any] = {}
        self.step: dict[tuple[int, Hashable], int] = {}
        self.write: dict[tuple[int, Hashable], tuple[int, tuple]] = {}
        self.endpoints: dict[tuple[int, ...], GlobalState] = {}
        self.rounds: dict[Hashable, dict[Hashable, RoundOutcome]] = {}

    def intern(self, i: int, local: Hashable) -> int:
        """The id of process *i*'s local state *local*."""
        # One lookup, so *local* is hashed once whether it is new or not.
        local_id = self.ids.setdefault((i, local), len(self.locals))
        if local_id == len(self.locals):
            self.locals.append(local)
        return local_id

    def intern_locals(self, locals_: Sequence[Hashable]) -> list[int]:
        """The id of each process's local state in *locals_*."""
        ids, interned = self.ids, self.locals
        out = []
        for key in enumerate(locals_):
            local_id = ids.setdefault(key, len(interned))
            if local_id == len(interned):
                interned.append(key[1])
            out.append(local_id)
        return out

    def intern_value(self, value: Hashable) -> int:
        """The id of the environment component *value*."""
        value_id = self.value_ids.setdefault(value, len(self.values))
        if value_id == len(self.values):
            self.values.append(value)
        return value_id

    def intern_values(self, values: Iterable[Hashable]) -> list[int]:
        """The id of each environment component of *values*, in order."""
        value_ids, interned = self.value_ids, self.values
        out = []
        for value in values:
            value_id = value_ids.setdefault(value, len(interned))
            if value_id == len(interned):
                interned.append(value)
            out.append(value_id)
        return out


def prefix_fold(
    model: "PrefixFoldModel",
    state: GlobalState,
    program: PrefixProgram,
    tables: Optional[ProtocolTables] = None,
) -> list[GlobalState]:
    """:meth:`Model.run` for a model whose layers are many primitives.

    Runs the steps of *program* (:func:`prefix_program`) from *state*:

    * each distinct prefix of the layer's expansions is stepped once;
    * scratch ids are copied only where expansions diverge, or where
      one ends inside another;
    * equal endpoints are one object, built and hashed once for as long
      as *tables* live: within the layer, duplicates and the empty
      expansion included, and across every state folded with them.

    The scratch is two lists of small ints in *tables*
    (:class:`ProtocolTables`; None: tables of this call alone): the id
    of each process's local state, and the id of each component of the
    environment.  The *model* (:class:`PrefixFoldModel`) supplies three
    hooks:

    * ``_enter(tables, env)`` turns *state*'s environment into scratch
      ids, checking that it is the model's;
    * ``_fold(tables, ids, env, primitives)`` folds a run of primitives
      from a scratch state, one primitive at a time, checking each as
      the one-primitive path does and raising ``ValueError`` if it is
      illegal there.  It looks up and files its protocol calls in
      *tables*, copies its other arguments rather than change them, and
      returns the new scratch ``(ids, env)``, so every step starts from
      its source slot's scratch;
    * ``_seal(values, env)`` turns a scratch environment into the
      model's environment state, reading each component from
      ``tables.values``.

    An endpoint is keyed by its scratch ``(*env, *ids)``, and only an
    endpoint not yet in ``tables.endpoints`` is sealed and built.

    The steps run in the program's depth-first order.  So an expansion
    that is legal alone never fails here, and one that is illegal alone
    raises the same error here, unless an expansion walked before it
    raises first.
    """
    if tables is None:
        tables = ProtocolTables()
    built, locals_, values = tables.endpoints, tables.locals, tables.values
    endpoints: list = [None] * program.count
    scratch = [
        (tables.intern_locals(state.locals), model._enter(tables, state.env))
    ]
    for source, primitives, ends in program.steps:
        ids, env = scratch[source]
        if primitives:
            ids, env = model._fold(tables, ids, env, primitives)
        scratch.append((ids, env))
        if ends:
            key = (*env, *ids)
            endpoint = built.get(key)
            if endpoint is None:
                endpoint = built[key] = GlobalState(
                    model._seal(values, env),
                    tuple(map(locals_.__getitem__, ids)),
                )
            for index in ends:
                endpoints[index] = endpoint
    return endpoints


class PrefixFoldModel(Model):
    """A model whose layers are many primitives (the asynchronous
    models): its :meth:`Model.run` is :func:`prefix_fold`, over the
    scratch its three hooks define."""

    #: The kinds of primitive; each primitive is ``(kind, process)``.
    KINDS: tuple[str, ...] = ()

    def __init__(self, n: int) -> None:
        super().__init__(n)
        vars(self).update(self._layout())

    def _layout(self) -> dict[str, Any]:
        """The attributes the fold derives from ``n`` alone.  They are
        set by the constructor and again on unpickling, and never
        pickled, so a model pickles to what its constructor was given.
        Here: the one-step program of each primitive, for :meth:`apply`.
        """
        return {
            "_one_step": {
                (kind, i): PrefixProgram(1, ((0, ((kind, i),), (0,)),))
                for kind in self.KINDS
                for i in range(self._n)
            }
        }

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        for name in self._layout():
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        vars(self).update(self._layout())

    def run(
        self,
        state: GlobalState,
        program: PrefixProgram,
        tables: Optional[ProtocolTables] = None,
    ) -> list[GlobalState]:
        """Fold the expansions of *program* along their shared prefixes
        on scratch ids (:func:`prefix_fold`).  For as long as *tables*
        live, each protocol call runs once per distinct input (see the
        model's ``_fold``)."""
        return prefix_fold(self, state, program, tables)

    @abstractmethod
    def _enter(self, tables: ProtocolTables, env: Hashable) -> list[int]:
        """The scratch ids of the environment state *env*."""

    @abstractmethod
    def _fold(
        self, tables: ProtocolTables, ids: Sequence[int], env: Sequence[int],
        primitives: Sequence[Hashable],
    ) -> tuple[list[int], list[int]]:
        """The scratch ``(ids, env)`` after *primitives*, from a copy of
        the scratch ``(ids, env)``."""

    @abstractmethod
    def _seal(self, values: Sequence, env: Sequence[int]) -> Hashable:
        """The environment state of the scratch environment *env*."""

    def apply(self, state: GlobalState, action: Hashable) -> GlobalState:
        """One primitive: a one-step program, folded with tables of this
        call."""
        program = self._one_step.get(action)
        if program is None:  # not a primitive: the fold refuses it
            program = PrefixProgram(1, ((0, (action,), (0,)),))
        return prefix_fold(self, state, program)[0]

    def apply_many(
        self, state: GlobalState, actions: Iterable[Hashable]
    ) -> GlobalState:
        return self.apply_each(state, [actions])[0]

    def compile(self, expansions: Iterable[Iterable[Hashable]]) -> PrefixProgram:
        return prefix_program(expansions)
