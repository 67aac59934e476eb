"""State-space statistics for the ablation experiments (E9).

Measures what the layerings actually buy: layer widths per model, the
reachable submodel sizes, the memoization/sharing behaviour of the
canonical state representation, and the effect of removing structural
pieces of a layering (the ``(j, A)`` absent actions of the synchronic
layerings, the short schedules of the permutation layering) on the
connectivity structure the proofs rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.exploration import ExplorationStats, explore
from repro.core.similarity import is_similarity_connected
from repro.core.state import GlobalState
from repro.core.valence import ValenceAnalyzer
from repro.layerings.base import CompiledLayer, Layering
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES


@dataclass(frozen=True)
class LayerStats:
    """Structural statistics of one layering at one state."""

    name: str
    actions: int
    distinct_successors: int
    similarity_connected: bool
    valence_connected: Optional[bool]


def layer_statistics(
    name: str,
    layering: Layering,
    state: GlobalState,
    analyzer: Optional[ValenceAnalyzer] = None,
) -> LayerStats:
    """Measure one layer: action count, distinct successors, connectivity."""
    actions = list(layering.layer_actions(state))
    successors = list(
        dict.fromkeys(layering.apply(state, a) for a in actions)
    )
    valence_ok = None
    if analyzer is not None:
        from repro.core.connectivity import is_valence_connected

        valence_ok = is_valence_connected(successors, analyzer)
    return LayerStats(
        name=name,
        actions=len(actions),
        distinct_successors=len(successors),
        similarity_connected=is_similarity_connected(successors, layering),
        valence_connected=valence_ok,
    )


class FilteredLayering(Layering):
    """A layering with some layer actions removed — the ablation device.

    Removing actions can only *shrink* layers, so any connectivity loss
    observed under the filter is attributable to the removed actions:
    e.g. dropping the ``(j, A)`` absent actions from ``S^rw`` removes the
    diamond that links the absent states to ``Y`` — and also removes the
    submodel's ability to starve a process at all, silently changing
    which impossibility argument applies.  E9 quantifies this.
    """

    def __init__(
        self, inner: Layering, keep: Callable[[object], bool], name: str = ""
    ) -> None:
        super().__init__(inner.model)
        self._inner = inner
        self._keep = keep
        self._name = name or f"filtered-{type(inner).__name__}"
        # The inner layering's compiled layers, minus the removed actions.
        for key, layer in inner.compiled_layers.items():
            kept = [
                index
                for index, action in enumerate(layer.actions)
                if keep(action)
            ]
            expansions = tuple(layer.expansions[index] for index in kept)
            self._layers[key] = CompiledLayer(
                tuple(layer.actions[index] for index in kept),
                expansions,
                self.model.compile(expansions),
            )

    @property
    def name(self) -> str:
        return self._name

    def layer_key(self, state: GlobalState):
        return self._inner.layer_key(state)

    def layer_actions(self, state: GlobalState):
        return [a for a in self._inner.layer_actions(state) if self._keep(a)]

    def expand(self, state: GlobalState, action):
        return self._inner.expand(state, action)

    def nonfaulty_under(self, action):
        return self._inner.nonfaulty_under(action)


def submodel_size(
    layering,
    initial_states: list[GlobalState],
    max_depth: Optional[int] = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
) -> ExplorationStats:
    """Reachable-state statistics of the layered submodel."""
    return explore(layering, initial_states, max_depth, max_states)
