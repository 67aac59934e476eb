"""Section 7 drivers: the solvability matrix and the diameter tables.

Experiment E7 — :func:`solvability_matrix` — builds, for every catalog
task, the row Corollary 7.3 predicts: the 1-thick-connectivity verdict,
the operational verdict of the registered solver (verified exhaustively in
the three 1-resilient layered submodels), or the per-model defeat reports
of the natural candidate for the unsolvable tasks.

Experiment E8 — :func:`diameter_table` — measures s-diameters of layered
state sets against Lemma 7.6's composition bound and tabulates Theorem
7.7's round-indexed bound series.

Lemma 7.1 — :func:`lemma_7_1_run` — replays the generalized bivalent-run
construction against an explicit covering of a layered system's outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.core.cache import CacheSpec
from repro.core.similarity import is_similarity_connected
from repro.core.state import GlobalState
from repro.protocols.candidates import QuorumDecide
from repro.protocols.tasks import (
    DecideConstantProtocol,
    DecideOwnInput,
    EpsilonAgreementProtocol,
    KSetAgreementProtocol,
)
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.resilience.crashpoint import crashpoint
from repro.tasks.catalog import CATALOG, EXPECTED_SOLVABLE
from repro.tasks.covering import Covering, OutcomeAnalyzer
from repro.tasks.diameter import check_lemma_7_6, theorem_7_7_series
from repro.tasks.solvability import (
    SolvabilityRow,
    corollary_7_3_row,
    defeat_in_every_model,
)

if TYPE_CHECKING:
    from repro.resilience.pool import PoolConfig

SOLVERS = {
    "identity": DecideOwnInput,
    "constant": DecideConstantProtocol,
    "epsilon-agreement": EpsilonAgreementProtocol,
    "2-set-agreement": lambda: KSetAgreementProtocol(2),
}

CANDIDATES = {
    # Natural attempts at the unsolvable tasks, for the defeat reports:
    # quorum-minimum "solves" consensus and election the same doomed way.
    "consensus": lambda n: QuorumDecide(quorum=n - 1),
    "leader-election": lambda n: QuorumDecide(quorum=n - 1),
}


@dataclass(frozen=True)
class MatrixEntry:
    """One task's complete E7 record.

    ``error`` is set (and ``row`` is None) when the task's verification
    unit was quarantined by the parallel executor — the entry then counts
    as not matching expectations, with the fault cause preserved, instead
    of the whole matrix aborting.
    """

    row: Optional[SolvabilityRow]
    expected_solvable: bool
    defeats: Optional[dict]  # model -> TaskReport for unsolvable tasks
    error: Optional[str] = None

    @property
    def matches_expectation(self) -> bool:
        if self.error is not None or self.row is None:
            return False
        if self.row.thick_connected != self.expected_solvable:
            return False
        solved = self.row.operationally_solved
        if solved is not None and solved != self.expected_solvable:
            return False
        if self.defeats is not None and any(
            r.satisfied for r in self.defeats.values()
        ):
            return False
        return True


@dataclass(frozen=True)
class _MatrixContext:
    """Shared knobs of one E7 run, shipped once per worker process.

    Payloads are then just task names — the O(shard descriptor) payload
    discipline of the parallel checker, applied to the matrix driver.
    """

    n: int
    max_input_set_size: Optional[int]
    budget: Budget
    cache: CacheSpec
    preflight: bool


def _matrix_unit(payload: str, context: _MatrixContext) -> MatrixEntry:
    """Pool unit: one task's full E7 entry (runs in a worker process).

    The payload carries only the task *name*; knobs ride the shared
    context and the problem, solver and candidate are rebuilt from the
    module-level catalogs inside the worker, so nothing unpicklable (the
    catalog lambdas) ever crosses the process boundary.
    """
    name = payload
    n = context.n
    max_input_set_size = context.max_input_set_size
    budget = context.budget
    cache = context.cache
    preflight = context.preflight
    problem = CATALOG[name](n)
    solver_factory = SOLVERS.get(name)
    solver = solver_factory() if solver_factory else None
    row = corollary_7_3_row(
        problem,
        solver,
        max_input_set_size=max_input_set_size,
        max_states=budget,
        cache=cache,
        preflight=preflight,
    )
    defeats = None
    candidate_factory = CANDIDATES.get(name)
    if candidate_factory is not None:
        defeats = defeat_in_every_model(
            problem, candidate_factory(n), budget, cache=cache,
            preflight=preflight,
        )
    return MatrixEntry(
        row=row,
        expected_solvable=EXPECTED_SOLVABLE[name],
        defeats=defeats,
    )


def solvability_matrix(
    n: int = 3,
    tasks: Optional[list[str]] = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    max_input_set_size: Optional[int] = 3,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> dict[str, MatrixEntry]:
    """Experiment E7: the task × model solvability matrix.

    With ``workers > 1`` each task's entry is computed in its own worker
    process and merged back in task order — entries are identical to the
    sequential run's; a task whose worker crashes repeatedly appears as
    a quarantined entry (``error`` set, counted as not matching) rather
    than aborting the matrix.  ``cache`` (default on) memoizes system
    queries per task unit; entries are identical either way.
    """
    budget = Budget.of(max_states)
    names = list(tasks or sorted(CATALOG))
    context = _MatrixContext(
        n=n,
        max_input_set_size=max_input_set_size,
        budget=budget,
        cache=cache,
        preflight=preflight,
    )
    units = [(name, name) for name in names]
    if workers is not None and workers > 1 and len(units) > 1:
        from repro.resilience.pool import run_units, with_workers

        outcomes = run_units(
            _matrix_unit, units, with_workers(pool, workers), context=context
        ).outcomes
        entries: dict[str, MatrixEntry] = {}
        for name in names:
            outcome = outcomes[name]
            if outcome.quarantined:
                entries[name] = MatrixEntry(
                    row=None,
                    expected_solvable=EXPECTED_SOLVABLE[name],
                    defeats=None,
                    error=outcome.cause(),
                )
            else:
                entries[name] = outcome.value
        return entries
    entries_serial: dict[str, MatrixEntry] = {}
    for name, payload in units:
        crashpoint("driver.solvability.unit")
        entries_serial[name] = _matrix_unit(payload, context)
    return entries_serial


def lemma_7_1_run(
    layering,
    covering: Covering,
    initial_states: list[GlobalState],
    length: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
) -> list[GlobalState]:
    """Lemma 7.1's construction: a run bivalent w.r.t. a covering.

    Requires a similarity-connected initial set whose outcomes the
    covering covers with both sides inhabited; returns the constructed
    generalized-bivalent execution's states (length + 1 of them).
    """
    analyzer = OutcomeAnalyzer(layering, max_states)
    if not is_similarity_connected(initial_states, layering):
        raise ValueError("Lemma 7.1 precondition: I not similarity connected")
    all_outcomes = set()
    for s in initial_states:
        all_outcomes |= analyzer.outcome(s).outcomes
    if not covering.covers(sorted(all_outcomes, key=repr)):
        raise ValueError("not a covering of the runs from I")
    current = None
    for s in initial_states:
        if analyzer.outcome(s).bivalent_for(covering):
            current = s
            break
    if current is None:
        raise AssertionError(
            "Lemma 7.1 violated: no covering-bivalent initial state"
        )
    states = [current]
    for _ in range(length):
        chosen = None
        for _, child in layering.successors(current):
            if analyzer.outcome(child).bivalent_for(covering):
                chosen = child
                break
        if chosen is None:
            raise AssertionError(
                "Lemma 7.1 violated: no covering-bivalent successor"
            )
        states.append(chosen)
        current = chosen
    return states


def diameter_table(
    layering,
    initial_states: list[GlobalState],
    rounds: int,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
) -> list[dict]:
    """Experiment E8: measured layer diameters vs the Lemma 7.6 bound,
    round by round, starting from the initial set.

    Walks ``X_{m+1} = S(X_m)`` and reports the measured ``d_X``, the
    per-layer ``d_Y``, the measured image diameter and the composed
    bound.  Stops early (with a partial table) if a set becomes
    disconnected — which the lemma's preconditions then explain — or if
    the *budget* runs out (layer images grow fast), in which case the
    last row is a note naming the tripped limit.
    """
    from repro.tasks.diameter import layer_image

    meter = Budget.of(max_states).meter()
    table = []
    current = list(dict.fromkeys(initial_states))
    for round_index in range(rounds):
        tripped = meter.poll()
        for state in current:
            tripped = tripped or meter.charge_state(state)
        if tripped is not None:
            table.append(
                {
                    "round": round_index,
                    "note": f"stopped: budget exhausted ({tripped})",
                }
            )
            break
        try:
            row = check_lemma_7_6(layering, current)
        except ValueError as exc:
            table.append({"round": round_index, "note": str(exc)})
            break
        row["round"] = round_index
        row["set_size"] = len(current)
        table.append(row)
        current = layer_image(layering, current)
    return table


def theorem_7_7_table(n: int, t: int, d_initial: int) -> list[dict]:
    """The Theorem 7.7 bound series as table rows."""
    series = theorem_7_7_series(n, t, d_initial)
    return [
        {"round": m, "d_Y^m": 2 * (n - m) if m < t else None, "d_X^m": d}
        for m, d in enumerate(series)
    ]
