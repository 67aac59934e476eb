"""Every cell of the E7 solvability matrix at n=3, pinned.

``repro solvability`` prints one coarse row per task; behind each row
are the per-model task reports of the registered solver
(:func:`verify_protocol_solves`) or of the natural candidate for an
unsolvable task (:func:`defeat_in_every_model`).  This pins each of those
cells — verdict, states explored, the input facet of a refutation and
its witness's layer actions — at the values the task checker produced
when it still ran its own BFS, so a change to the search underneath is
checked cell by cell, with the contract checks on and off.
"""

import pytest

from repro.analysis.solvability_experiments import CANDIDATES, SOLVERS
from repro.tasks.catalog import CATALOG
from repro.tasks.solvability import (
    defeat_in_every_model,
    verify_protocol_solves,
)

N = 3

# (task, driver, model, verdict, states_explored, input facet, actions)
CELLS = [
    ("consensus", "defeat", "synchronic-rw", "VALIDITY", 3, (0, 1, 1),
     (("sync", 0, 2),)),
    ("consensus", "defeat", "synchronic-mp", "VALIDITY", 3, (0, 1, 1),
     (("sync", 0, 2),)),
    ("consensus", "defeat", "permutation-mp", "VALIDITY", 8, (0, 1, 1),
     (("pair", (1, 0, 2), 1),)),
    ("consensus", "defeat", "iis-snapshot", "VALIDITY", 6, (0, 1, 1),
     (("blocks", (frozenset({1}), frozenset({2}), frozenset({0}))),)),
    ("identity", "solver", "synchronic-rw", "SATISFIED", 8, None, None),
    ("identity", "solver", "synchronic-mp", "SATISFIED", 8, None, None),
    ("identity", "solver", "permutation-mp", "SATISFIED", 8, None, None),
    ("identity", "solver", "iis-snapshot", "SATISFIED", 8, None, None),
    ("constant", "solver", "synchronic-rw", "SATISFIED", 8, None, None),
    ("constant", "solver", "synchronic-mp", "SATISFIED", 8, None, None),
    ("constant", "solver", "permutation-mp", "SATISFIED", 8, None, None),
    ("constant", "solver", "iis-snapshot", "SATISFIED", 8, None, None),
    ("leader-election", "defeat", "synchronic-rw", "VALIDITY", 2, (0, 0, 1),
     (("sync", 0, 0),)),
    ("leader-election", "defeat", "synchronic-mp", "VALIDITY", 2, (0, 0, 1),
     (("sync", 0, 0),)),
    ("leader-election", "defeat", "permutation-mp", "VALIDITY", 2,
     (0, 0, 1), (("full", (0, 1, 2)),)),
    ("leader-election", "defeat", "iis-snapshot", "VALIDITY", 2, (0, 0, 1),
     (("blocks", (frozenset({0}), frozenset({1}), frozenset({2}))),)),
]


def _reports(task: str, driver: str, preflight: bool) -> dict:
    problem = CATALOG[task](N)
    if driver == "solver":
        return verify_protocol_solves(
            problem, SOLVERS[task](), preflight=preflight
        )
    return defeat_in_every_model(
        problem, CANDIDATES[task](N), preflight=preflight
    )


@pytest.mark.parametrize("preflight", [True, False])
@pytest.mark.parametrize(
    "task,driver", sorted({(cell[0], cell[1]) for cell in CELLS})
)
def test_every_cell_matches_the_recorded_report(task, driver, preflight):
    expected = {
        cell[2]: cell[3:] for cell in CELLS if cell[:2] == (task, driver)
    }
    reports = _reports(task, driver, preflight)
    assert sorted(reports) == sorted(expected)
    for model, report in reports.items():
        verdict, states, facet, actions = expected[model]
        got_facet = (
            None
            if report.input_facet is None
            else tuple(report.input_facet.value_of(i) for i in range(N))
        )
        got_actions = (
            None if report.execution is None else report.execution.actions
        )
        assert (
            report.verdict.name, report.states_explored, got_facet,
            got_actions,
        ) == (verdict, states, facet, actions), model
        assert report.cycle is None
