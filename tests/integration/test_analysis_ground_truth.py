"""Ground truth for the graph-building analyses, recorded as literals.

Every number and set below was produced by the engine and written into
this file by hand; the file computes none of them.  It pins what the
valence analyzer, the outcome analyzer and the explorer return on the
E4 and E12 systems, so a change to how these analyses walk the state
graph or fold over its components must reproduce them exactly.

Encodings: a valence is the string of its values (``"01"`` is
bivalent); an outcome simplex is a string indexed by process id, with
``-`` for a process that is not in it (``"0-1"`` is
``{<0,0>, <2,1>}``).
"""

import pytest

from benchmarks.bench_e12_analyzer_scaling import GRID, make
from repro.analysis.impossibility import forever_bivalent_run
from repro.core.exploration import explore
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.tasks.covering import OutcomeAnalyzer
from tests.integration.test_analyzer_consistency import systems

CELLS = [f"{kind}-{n}" for kind, n in GRID]

#: Per Con_0 root, in ``initial_states((0, 1))`` order: the valence,
#: whether it diverges, and ``explored_states`` after the query (one
#: analyzer per cell, so the counts accumulate).  Every result is
#: complete.
VALENCE = {
    "s1-3": (
        ("0", False, 8), ("0", False, 16), ("0", False, 24),
        ("01", False, 32), ("0", False, 40), ("01", False, 48),
        ("01", False, 56), ("1", False, 64),
    ),
    "s1-4": (
        ("0", False, 14), ("0", False, 28), ("0", False, 42),
        ("0", False, 56), ("0", False, 70), ("0", False, 84),
        ("0", False, 98), ("01", False, 112), ("0", False, 126),
        ("0", False, 140), ("0", False, 154), ("01", False, 168),
        ("0", False, 182), ("01", False, 196), ("01", False, 210),
        ("1", False, 224),
    ),
    "srw-3": (
        ("0", True, 32), ("0", True, 64), ("0", True, 96),
        ("01", True, 128), ("0", True, 160), ("01", True, 192),
        ("01", True, 224), ("1", True, 256),
    ),
    "per-3": (
        ("0", True, 361), ("0", True, 722), ("0", True, 1083),
        ("01", True, 1478), ("0", True, 1839), ("01", True, 2234),
        ("01", True, 2629), ("1", True, 2990),
    ),
}

#: Per initial state, in ``initial_states((0, 1))`` order: the outcome
#: simplexes (sorted).  No state of these systems diverges.
OUTCOMES = {
    "permutation": (
        "-00 0-0 00- 000",
        "-00 0-0 00- 000",
        "-00 0-0 00- 000",
        "-00 -11 0-0 0-1 00- 000 001 01- 010 011",
        "-00 0-0 00- 000",
        "-00 -01 0-0 00- 000 001 1-1 10- 100 101",
        "-00 -10 0-0 00- 000 010 1-0 100 11- 110",
        "-11 1-1 11- 111",
    ),
    "s1-mobile": (
        "000", "000", "000", "000 010 011",
        "000", "000 100 101", "000 100 110", "111",
    ),
    "synchronic-rw": (
        "-00 0-0 00- 000",
        "-00 0-0 00- 000",
        "-00 0-0 00- 000",
        "-11 0-0 00- 000 010 011",
        "-00 0-0 00- 000",
        "-00 00- 000 1-1 100 101",
        "-00 0-0 000 100 11- 110",
        "-11 1-1 11- 111",
    ),
}

#: ``explore(..., max_depth=2)`` over all of Con_0: states, edges,
#: frontier sizes, duplicate hits, min and max layer size.
EXPLORE = {
    "s1-3": (73, 768, [8, 56, 9], 703, 1, 7),
    "s1-4": (244, 4480, [16, 208, 20], 4252, 1, 13),
    "srw-3": (432, 1320, [8, 80, 344], 896, 4, 10),
    "per-3": (2108, 3648, [8, 144, 1956], 1548, 16, 18),
}


def _simplex(simplex) -> str:
    values = dict(simplex.vertices)
    return "".join(
        str(values[i]) if i in values else "-" for i in range(3)
    )


@pytest.mark.parametrize("cell", CELLS)
def test_valence_of_every_con0_root(cell):
    layering = make(*GRID[CELLS.index(cell)])
    analyzer = ValenceAnalyzer(layering, 1_500_000)
    got = []
    for state in layering.model.initial_states((0, 1)):
        result = analyzer.valence(state)
        assert result.complete
        got.append((
            "".join(str(v) for v in sorted(result.values)),
            result.diverges,
            analyzer.explored_states,
        ))
    assert tuple(got) == VALENCE[cell]


def test_valence_per3_reads_each_state_once():
    """One valence-per3 op: each explored state's failed set and
    decisions are read once, and only non-terminal states expand."""
    layering = PermutationLayering(
        AsyncMessagePassingModel(QuorumDecide(2), 3)
    )
    calls = {"successors": 0, "failed_at": 0, "decisions": 0}
    for name in calls:
        method = getattr(layering, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        setattr(layering, name, counted)
    analyzer = ValenceAnalyzer(layering, 1_500_000)
    for state in layering.model.initial_states((0, 1)):
        analyzer.valence(state)
    assert analyzer.explored_states == 2990
    assert calls == {"successors": 824, "failed_at": 2990, "decisions": 2990}


def test_e4_forever_bivalent_lasso():
    layering = PermutationLayering(
        AsyncMessagePassingModel(QuorumDecide(2), 3)
    )
    lasso, analyzer = forever_bivalent_run(layering, max_states=600_000)
    assert lasso.prefix.actions == (
        ("pair", (1, 0, 2), 1),
        ("full", (0, 1, 2)),
        ("full", (0, 1, 2)),
    )
    assert lasso.cycle.actions == (("full", (0, 1, 2)),)
    assert analyzer.explored_states == 2991


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_outcome_of_every_initial_state(name):
    layering = systems()[name]
    analyzer = OutcomeAnalyzer(layering, 600_000)
    got = []
    for state in layering.model.initial_states((0, 1)):
        result = analyzer.outcome(state)
        assert not result.diverges
        got.append(" ".join(sorted(_simplex(d) for d in result.outcomes)))
    assert tuple(got) == OUTCOMES[name]


@pytest.mark.parametrize("cell", CELLS)
def test_explore_to_depth_two(cell):
    layering = make(*GRID[CELLS.index(cell)])
    stats = explore(
        layering,
        layering.model.initial_states((0, 1)),
        max_depth=2,
        max_states=1_500_000,
    )
    assert stats.complete
    assert (
        stats.states,
        stats.edges,
        stats.frontier_sizes,
        stats.duplicate_hits,
        stats.min_layer_size,
        stats.max_layer_size,
    ) == EXPLORE[cell]
