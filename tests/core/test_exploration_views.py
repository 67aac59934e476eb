"""``reachable_states`` and ``explore`` are two views of one walk.

Both read the same budgeted BFS, so they must agree wherever the walk
stops: on the number of states discovered, on how many sit at each
depth, and on whether a budget trips.  The budgets here trip mid-walk,
past the root frontier, on real layered systems.
"""

from collections import Counter

import pytest

from repro.core.exploration import explore, reachable_states
from repro.core.valence import ExplorationLimitExceeded
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget


@pytest.fixture
def quorum_permutation_n2():
    """QuorumDecide(2) under the permutation layering, n=2."""
    return PermutationLayering(AsyncMessagePassingModel(QuorumDecide(2), 2))


@pytest.fixture(params=["st_floodset_tight", "quorum_permutation_n2"])
def system_and_roots(request):
    layering = request.getfixturevalue(request.param)
    return layering, layering.model.initial_states((0, 1))


def _histogram(depths):
    per_depth = Counter(depths.values())
    return [per_depth[d] for d in range(max(per_depth) + 1)]


def _mid_walk_budgets(full, roots):
    """A state budget and an edge budget that each trip halfway."""
    assert full.states // 2 > len(roots)  # past the root frontier
    return {
        "states": Budget(max_states=full.states // 2),
        "edges": Budget(max_edges=full.edges // 2),
    }


@pytest.mark.parametrize("max_depth", [1, 2, None])
class TestViewsAgree:
    def test_complete_walk(self, system_and_roots, max_depth):
        system, roots = system_and_roots
        depths = reachable_states(system, roots, max_depth=max_depth)
        stats = explore(system, roots, max_depth=max_depth)
        assert stats.complete
        assert len(depths) == stats.states
        assert _histogram(depths) == stats.frontier_sizes

    def test_mid_walk_trip(self, system_and_roots, max_depth):
        system, roots = system_and_roots
        full = explore(system, roots, max_depth=max_depth)
        for limit, budget in _mid_walk_budgets(full, roots).items():
            depths = reachable_states(
                system, roots, max_depth=max_depth, max_states=budget,
                strict=False,
            )
            stats = explore(
                system, roots, max_depth=max_depth, max_states=budget
            )
            assert not stats.complete and stats.limit == limit
            assert len(depths) == stats.states < full.states
            assert _histogram(depths) == stats.frontier_sizes

    def test_strict_views_raise_on_the_same_budgets(
        self, system_and_roots, max_depth
    ):
        system, roots = system_and_roots
        full = explore(system, roots, max_depth=max_depth)
        for budget in _mid_walk_budgets(full, roots).values():
            with pytest.raises(ExplorationLimitExceeded):
                reachable_states(
                    system, roots, max_depth=max_depth, max_states=budget
                )
            with pytest.raises(ExplorationLimitExceeded):
                explore(
                    system, roots, max_depth=max_depth, max_states=budget,
                    strict=True,
                )
