"""Solvability characterization drivers (Theorem 7.2, Corollary 7.3).

Corollary 7.3: in each of the paper's 1-resilient models — shared memory,
message passing, the synchronic and permutation submodels, and the single
mobile failure model — a decision problem is solvable **iff** it is
1-thick-connected.

This module provides the machinery that checks both directions on
concrete tasks:

* the combinatorial side —
  :func:`repro.tasks.thick.problem_is_k_thick_connected`;
* the operational side — run a protocol through
  :class:`repro.tasks.checker.TaskChecker` in a layered submodel
  (:func:`verify_protocol_solves`), or observe that every candidate is
  defeated (for the non-connected tasks the impossibility analysis of
  Sections 3–5, generalized by Lemma 7.1, applies).

:func:`corollary_7_3_row` produces one row of the E7 experiment matrix:
the task's thick-connectivity verdict, the expected solvability, and —
when a solver protocol is registered — the checker's verdict per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.cache import CacheSpec
from repro.core.checker import Verdict
from repro.layerings.iterated_snapshot import IteratedSnapshotLayering
from repro.layerings.permutation import PermutationLayering
from repro.layerings.synchronic_mp import SynchronicMPLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.shared_memory import SharedMemoryModel
from repro.models.snapshot import SnapshotMemoryModel
from repro.protocols.base import DualProtocol
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES
from repro.tasks.checker import TaskChecker, TaskReport
from repro.tasks.problem import DecisionProblem
from repro.tasks.thick import problem_is_k_thick_connected


@dataclass(frozen=True)
class SolvabilityRow:
    """One row of the task × model solvability matrix (experiment E7)."""

    task: str
    thick_connected: bool
    reports: dict  # model-name -> TaskReport or None (no solver registered)

    @property
    def operationally_solved(self) -> Optional[bool]:
        """Whether the registered solver verified in every model (None when
        no solver is registered)."""
        reports = [r for r in self.reports.values() if r is not None]
        if not reports:
            return None
        return all(r.satisfied for r in reports)

    @property
    def consistent_with_characterization(self) -> bool:
        """Corollary 7.3 consistency: a verified solver implies
        thick-connectivity; inconsistency would falsify the theorem."""
        solved = self.operationally_solved
        if solved is None:
            return True
        return (not solved) or self.thick_connected


def one_resilient_layerings(
    protocol: DualProtocol, n: int
) -> dict[str, object]:
    """The 1-resilient layered submodels of Corollary 7.3 for a protocol.

    The mobile-failure model is covered by the consensus-specific
    experiments (its checker needs the synchronous protocol interface);
    the three asynchronous submodels plus the iterated-snapshot extension
    (the paper's announced full-version addition) are the ones general
    task protocols target here.
    """
    return {
        "synchronic-rw": SynchronicRWLayering(
            SharedMemoryModel(protocol, n)
        ),
        "synchronic-mp": SynchronicMPLayering(
            AsyncMessagePassingModel(protocol, n)
        ),
        "permutation-mp": PermutationLayering(
            AsyncMessagePassingModel(protocol, n)
        ),
        "iis-snapshot": IteratedSnapshotLayering(
            SnapshotMemoryModel(protocol, n)
        ),
    }


def verify_protocol_solves(
    problem: DecisionProblem,
    protocol: DualProtocol,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    models: Optional[dict] = None,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> dict[str, TaskReport]:
    """Exhaustively check a protocol against a task in each 1-resilient
    layered submodel; returns the per-model reports.

    Each model gets its own memoization cache (``cache=False`` disables,
    an int bounds it); reports are identical either way.  ``preflight``
    (default on) checks the contracts inside each search, diagnosing an
    ill-formed protocol as ``ILL_FORMED`` instead of a verdict on it."""
    systems = models or one_resilient_layerings(protocol, problem.n)
    reports = {}
    for name, layering in systems.items():
        checker = TaskChecker(
            layering, problem, max_states, cache=cache, preflight=preflight
        )
        reports[name] = checker.check_all(layering.model)
    return reports


def corollary_7_3_row(
    problem: DecisionProblem,
    solver: Optional[DualProtocol] = None,
    max_subproblems: int = 4096,
    max_input_set_size: Optional[int] = None,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> SolvabilityRow:
    """One task's row of the solvability matrix (see module docstring)."""
    thick = problem_is_k_thick_connected(
        problem,
        k=1,
        max_subproblems=max_subproblems,
        max_input_set_size=max_input_set_size,
    )
    reports: dict[str, Optional[TaskReport]] = {}
    if solver is not None:
        reports = dict(
            verify_protocol_solves(
                problem, solver, max_states=max_states, cache=cache,
                preflight=preflight,
            )
        )
    return SolvabilityRow(
        task=problem.name, thick_connected=thick, reports=reports
    )


def defeat_in_every_model(
    problem: DecisionProblem,
    candidate: DualProtocol,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    cache: CacheSpec = True,
    preflight: bool = True,
) -> dict[str, TaskReport]:
    """Run a candidate for an *unsolvable* task through every submodel and
    return the per-model defeat reports (none may be SATISFIED — that is
    what the callers assert, mirroring Theorem 7.2's contrapositive)."""
    reports = verify_protocol_solves(
        problem, candidate, max_states, cache=cache, preflight=preflight
    )
    return reports


def theorem_7_2_consistency(
    problem: DecisionProblem,
    reports: dict[str, TaskReport],
    thick_connected: bool,
) -> bool:
    """Theorem 7.2 as a consistency predicate: if some layered system
    satisfied decision+validity, the problem must be 1-thick-connected."""
    solved_somewhere = any(
        r.satisfied for r in reports.values() if r is not None
    )
    return (not solved_somewhere) or thick_connected


__all__ = [
    "SolvabilityRow",
    "Verdict",
    "corollary_7_3_row",
    "defeat_in_every_model",
    "one_resilient_layerings",
    "theorem_7_2_consistency",
    "verify_protocol_solves",
]
