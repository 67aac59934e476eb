"""The engine's valence and SCC pass against the naive reference.

:mod:`tests.property.reference` computes valence, divergence and
strongly connected components from their definitions, sharing no code
with the engine.  On random graphs of up to 12 states, with self-loops,
cycles, and decided and failed labels, the engine must agree with it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import sccs
from repro.core.valence import ValenceAnalyzer
from tests.conftest import ToySystem
from tests.property import reference


@st.composite
def toy_systems(draw):
    """A total random system over 1-12 states, with its state names."""
    names = [f"s{i}" for i in range(draw(st.integers(1, 12)))]
    edges, decisions, failed = {}, {}, {}
    for name in names:
        targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        edges[name] = [(f"a{k}", t) for k, t in enumerate(targets)]
        decisions[name] = draw(
            st.dictionaries(st.integers(0, 1), st.integers(0, 1))
        )
        failed[name] = frozenset(draw(st.sets(st.integers(0, 1), max_size=1)))
    return ToySystem(edges, decisions, failed), names


@given(toy_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_valence_matches_the_reference(case, data):
    # One analyzer queried in a random order: states finalized by earlier
    # queries are sinks of later walks.
    system, names = case
    analyzer = ValenceAnalyzer(system)
    for name in data.draw(st.permutations(names)):
        state = system.state(name)
        result = analyzer.valence(state)
        values, diverges = reference.valence(system, state)
        assert result.complete
        assert (result.values, result.diverges) == (frozenset(values), diverges)


@st.composite
def graphs(draw):
    """A random graph over vertices 0..n-1 whose edges may leave it (to
    vertex n, or to a vertex that is not a key), and a list of roots."""
    n = draw(st.integers(1, 12))
    graph = draw(
        st.dictionaries(
            st.integers(0, n - 1), st.lists(st.integers(0, n), max_size=4)
        )
    )
    roots = draw(st.lists(st.integers(0, n), max_size=4))
    return graph, roots


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_sccs_are_the_mutual_reachability_classes(case):
    graph, roots = case
    components = list(sccs(roots, graph))
    classes = reference.mutual_reachability_classes(graph, roots)
    assert len(components) == len(classes)
    assert {frozenset(c) for c in components} == classes


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_sccs_come_in_reverse_topological_order(case):
    graph, roots = case
    emitted: set = set()
    for component in sccs(roots, graph):
        for vertex in component:
            for child in graph[vertex]:
                if child in graph and child not in component:
                    assert child in emitted
        emitted.update(component)
