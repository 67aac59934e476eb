"""The layering framework (Section 4).

A *successor function* ``S : G -> 2^G \\ {∅}`` generates the system ``R_S``
of ``S``-runs.  ``S`` is a *layering* of a system ``R`` when every
``S``-run starting at an initial state of ``R`` embeds monotonically into a
run of ``R`` — i.e. each layer is a legal stretch of the underlying model's
behaviour.

Here a layering is defined **constructively** over a concrete model: every
layer action carries its own expansion into a sequence of the model's
primitive environment actions (:meth:`Layering.expand`).  Applying a layer
action is folding its expansion through the model, so the monotone
embedding required by the paper's definition holds *by construction* — and
:func:`embedding_trace` re-checks it mechanically: each primitive in the
expansion must be enabled in the model at the point it is applied.

The fold is one call, :meth:`repro.models.base.Model.apply_many`.  An
``S``-run is made of layer endpoints only, so models whose layers are many
primitives run the whole expansion on scratch locals and build a single
:class:`GlobalState` at the endpoint (hashed lazily, on first use).
:func:`embedding_trace` steps through :meth:`Model.apply` one primitive at
a time instead.  The contract checks (RP202) walk a sampled state's whole
layer with it, stepping each distinct prefix once, and compare each
endpoint with the batch fold's child; :func:`verify_layering_embedding`,
for tests, walks one action and also compares the endpoint with
:meth:`Layering.apply`.

A layer is compiled once (:meth:`Layering.compile_layer`): its action
labels, their expansions, and the model's program for them
(:meth:`Model.compile`).  :meth:`Layering.successors` runs a compiled
program at each state (:meth:`Model.run`), so work is shared across the
layer: the round models compute one synchronous round per state, and the
asynchronous models step each distinct prefix of the expansions once.
The layerings of this library build their layers in their constructors,
keyed by what the layer depends on (:meth:`Layering.layer_key`):
nothing for ``S^per``, ``S^mp``, ``S^rw``, IIS and ``S_1``, the failed
set for ``S^t``.  Each layering also builds one set of protocol tables
(:class:`~repro.models.base.ProtocolTables`) and passes it to every run,
so the asynchronous models call the protocol once per distinct input
and build each distinct endpoint once, and the round models check and
resolve each primitive once per environment, across all its states.  The
contract checks call :meth:`Layering.cold` instead, a copy without them.

Layerings implement the :class:`SuccessorSystem` interface consumed by the
analyzers in :mod:`repro.core` (valence, connectivity, bivalence): they are
the submodels on which all of the paper's round-by-round analysis runs.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import Any, NamedTuple, Optional
from typing import Protocol as TypingProtocol

from repro.core.state import GlobalState
from repro.models.base import Model, ProtocolTables


class SuccessorSystem(TypingProtocol):
    """What the core analyzers need from a layered system.

    Both raw models and layerings satisfy this structurally; the analyzers
    in :mod:`repro.core` accept either.
    """

    def successors(
        self, state: GlobalState
    ) -> list[tuple[Hashable, GlobalState]]:
        """All ``(action, next_state)`` pairs from *state*."""
        ...

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """Processes failed at *state* (empty in no-finite-failure models)."""
        ...

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        """The defined decision variables ``{i: d_i}`` at *state*."""
        ...


#: The state a layer that reads no part of the state is compiled at.
ANY_STATE = GlobalState(None)


class CompiledLayer(NamedTuple):
    """One layer, built once and run at every state that has it."""

    actions: tuple[Hashable, ...]
    expansions: tuple[tuple[Hashable, ...], ...]
    #: The model's program for *expansions* (:meth:`Model.compile`).
    program: Any


class Layering(ABC):
    """A successor function defined by macro-actions over a model."""

    def __init__(self, model: Model) -> None:
        self._model = model
        # layer_key -> the compiled layer of every state with that key;
        # filled by the constructors (_compile_layers), read-only after.
        self._layers: dict[Hashable, CompiledLayer] = {}
        # What the model's folds learned about the protocol, kept across
        # the states of this layering; None runs every fold with tables
        # of its own call (see cold).
        self._tables: Optional[ProtocolTables] = ProtocolTables()

    @property
    def model(self) -> Model:
        return self._model

    @property
    def n(self) -> int:
        return self._model.n

    @abstractmethod
    def layer_actions(self, state: GlobalState) -> Sequence[Hashable]:
        """The layer actions available at *state* (labels)."""

    @abstractmethod
    def expand(
        self, state: GlobalState, action: Hashable
    ) -> Sequence[Hashable]:
        """The primitive model actions a layer action expands into.

        The expansion may depend on the state (e.g. which processes have
        pending writes).  Folding the expansion through the model
        (:meth:`Model.apply_many`) defines :meth:`apply`.
        """

    def apply(self, state: GlobalState, action: Hashable) -> GlobalState:
        """Apply one layer: fold the expansion through the model."""
        return self._model.apply_many(state, self.expand(state, action))

    def compile_layer(self, state: GlobalState) -> CompiledLayer:
        """The layer at *state*, compiled from :meth:`layer_actions` and
        :meth:`expand`."""
        actions = tuple(self.layer_actions(state))
        expansions = tuple(
            tuple(self.expand(state, action)) for action in actions
        )
        return CompiledLayer(
            actions, expansions, self._model.compile(expansions)
        )

    def layer_key(self, state: GlobalState) -> Hashable:
        """What the layer at *state* depends on: states with equal keys
        have equal layer actions and expansions.  The default, None,
        suits a layer that depends on no part of the state."""
        return None

    def _compile_layers(self, states: Iterable[GlobalState]) -> None:
        """Compile the layer of each of *states* under its key; called
        by constructors, with one state per key."""
        for state in states:
            self._layers[self.layer_key(state)] = self.compile_layer(state)

    @property
    def compiled_layers(self) -> Mapping[Hashable, CompiledLayer]:
        """The layers built in the constructor, by :meth:`layer_key`."""
        return MappingProxyType(self._layers)

    def cold(self) -> "Layering":
        """A copy of this layering that runs each :meth:`successors` call
        with protocol tables of that call alone.

        It shares the compiled layers, not the tables.  This is the
        system the contract checks call: a second ``successors`` call,
        or a witness replay, that looked up the search's tables would
        pass whatever the protocol does.
        """
        twin = copy.copy(self)
        twin._tables = None
        return twin

    # -- pickling: the tables stay in their process --------------------------
    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_tables", None)
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._tables = ProtocolTables()

    # -- SuccessorSystem ---------------------------------------------------
    def successors(
        self, state: GlobalState
    ) -> list[tuple[Hashable, GlobalState]]:
        """All ``(layer_action, next_state)`` pairs from *state*.

        The model runs the layer built for the state's key (else one
        compiled at *state* now) in one :meth:`Model.run` call, so it can
        share work across the layer (one round per state in the round
        models, one step per distinct prefix in the asynchronous ones).
        It runs with this layering's protocol tables, so the asynchronous
        models also share protocol calls and endpoints across states, and
        the round models each primitive's outcome per environment.
        """
        layer = self._layers.get(self.layer_key(state))
        if layer is None:
            layer = self.compile_layer(state)
        return list(
            zip(
                layer.actions,
                self._model.run(state, layer.program, self._tables),
            )
        )

    def failed_at(self, state: GlobalState) -> frozenset[int]:
        """Delegates to the underlying model's failure bookkeeping."""
        return self._model.failed_at(state)

    def decisions(self, state: GlobalState) -> dict[int, Hashable]:
        """Delegates to the underlying model's decision extraction."""
        return self._model.decisions(state)

    def nonfaulty_under(self, action: Hashable) -> frozenset[int]:
        """Processes certainly nonfaulty in a run repeating *action* forever.

        Used by the decision-violation (lasso) check: a starved process on
        an infinite cycle only witnesses a violation of the *decision*
        requirement if it is nonfaulty in that run — e.g. the skipped
        process of a ``short`` permutation schedule is crashed, so *its*
        non-decision proves nothing, while the scheduled processes' does.
        Layerings override this per action kind; the default claims every
        process (correct for layers in which everybody takes full steps).
        """
        return frozenset(range(self.n))


def embedding_trace(
    layering: Layering, state: GlobalState, action: Hashable, stepped: dict
) -> list[GlobalState]:
    """The states *action*'s expansion passes through from *state*, both
    endpoints included, stepped one primitive at a time through
    :meth:`Model.apply`: the layer's embedding into a run of the model.

    *stepped* files every prefix stepped from *state* as a tree keyed by
    primitive (primitive -> the state it reaches and the tree below).
    Hand one dict to every action of a state, and a prefix they share is
    stepped once.  Raises ``AssertionError`` (also under ``-O``) if a
    primitive is not enabled in the model where it is applied.
    """
    model = layering.model
    trace = [state]
    for primitive in layering.expand(state, action):
        step = stepped.get(primitive)
        if step is None:
            if primitive not in model.actions(trace[-1]):
                raise AssertionError(
                    f"layer action {action!r}: primitive {primitive!r} not "
                    f"enabled at an intermediate state"
                )
            step = stepped[primitive] = (model.apply(trace[-1], primitive), {})
        trace.append(step[0])
        stepped = step[1]
    return trace


def verify_layering_embedding(
    layering: Layering, state: GlobalState, action: Hashable
) -> list[GlobalState]:
    """Check one layer's expansion is a legal model execution.

    Returns the intermediate model states (including both endpoints),
    the :func:`embedding_trace` of the one action.  Raises
    ``AssertionError`` if any primitive of the expansion is not enabled
    in the model where it is applied, or if the folded endpoint differs
    from :meth:`Layering.apply` — i.e. if the monotone-embedding
    property of Section 4 fails.
    """
    trace = embedding_trace(layering, state, action, {})
    if trace[-1] != layering.apply(state, action):
        raise AssertionError(
            f"layer action {action!r}: folded endpoint disagrees with apply()"
        )
    return trace
