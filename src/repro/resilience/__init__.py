"""The resilience layer: budgets, checkpoints and checker fault injection.

Exhaustive verification at scale needs three guarantees this package
provides on top of the core engines:

* **Bounded resources** — :class:`Budget` bundles limits on states,
  edges, wall-clock time and (best-effort) memory, checked cooperatively
  inside every exploration loop (:mod:`repro.resilience.budget`).
* **No lost work** — a budget-exhausted search returns an ``UNKNOWN``
  verdict carrying statistics and an :class:`ExplorationCheckpoint` that
  resumes the search exactly where it stopped
  (:mod:`repro.resilience.checkpoint`).  Crucially, degradation is
  *sound*: a violation found before the budget tripped is still returned
  as a definitive refutation — a budget can only ever turn ``SATISFIED``
  into ``UNKNOWN``, never a violation into ``SATISFIED``.
* **Crash-tolerant parallelism** — :mod:`repro.resilience.pool` shards
  verification units across worker processes that are allowed to die:
  heartbeats detect hangs, crashed units retry with backoff, units that
  crash repeatedly are *quarantined* (reported UNKNOWN with the fault
  cause) instead of aborting the sweep, and results merge back
  deterministically so parallel output equals sequential output.
* **Crash-anywhere recovery** — :mod:`repro.resilience.chaos` plants
  named *crashpoints* throughout the engine and sweeps them: a campaign
  is killed (``SIGKILL``) at every reachable point, resumed from disk,
  and the resumed verdicts must be byte-identical to an uninterrupted
  run.  :mod:`repro.resilience.journal` backs this with an append-only,
  CRC-framed checkpoint journal that self-heals a torn tail, and
  :mod:`repro.resilience.retry` gives every timeout and retry one
  deterministic vocabulary (:class:`RetryPolicy` / :class:`Deadline`).
* **A validated validator** — :mod:`repro.resilience.mutation` injects
  known fault classes (decision flips, early decisions, decision
  overwrites, dropped relays, decision starvation) into shipped
  protocols and asserts the checker refutes every mutant with a
  replayable witness — the robustness analogue of Theorem 4.2's
  converse.

:mod:`repro.resilience.mutation` is imported lazily (it depends on the
checker, which itself uses this package's budgets).
"""

from repro.resilience.budget import (
    Budget,
    BudgetMeter,
    BudgetStats,
    merge_stats,
)
from repro.resilience.chaos import (
    CampaignTarget,
    ChaosInjected,
    ChaosResult,
    ChaosSweep,
    active_plan,
    chaos_sweep,
    crashpoint,
)
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckAllCheckpoint,
    CheckpointCorrupt,
    CheckpointMismatch,
    ExplorationCheckpoint,
    load_checkpoint,
    save_checkpoint,
    system_fingerprint,
)
from repro.resilience.journal import (
    CampaignJournal,
    load_journal,
)
from repro.resilience.pool import (
    PoolConfig,
    PoolFault,
    PoolReport,
    UnitOutcome,
    WorkerPool,
    exception_category,
    pool_config_for,
    run_units,
)
from repro.resilience.retry import (
    Deadline,
    RetryPolicy,
)

_MUTATION_EXPORTS = (
    "MutantProtocol",
    "MutantResult",
    "MUTATION_OPERATORS",
    "kill_rate",
    "mutation_campaign",
    "mutation_kill_table",
    "replay_witness",
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "BudgetStats",
    "CampaignCheckpoint",
    "CampaignJournal",
    "CampaignTarget",
    "ChaosInjected",
    "ChaosResult",
    "ChaosSweep",
    "CheckAllCheckpoint",
    "CheckpointCorrupt",
    "CheckpointMismatch",
    "Deadline",
    "ExplorationCheckpoint",
    "PoolConfig",
    "PoolFault",
    "PoolReport",
    "RetryPolicy",
    "UnitOutcome",
    "WorkerPool",
    "active_plan",
    "chaos_sweep",
    "crashpoint",
    "exception_category",
    "load_checkpoint",
    "load_journal",
    "merge_stats",
    "pool_config_for",
    "run_units",
    "save_checkpoint",
    "system_fingerprint",
    *_MUTATION_EXPORTS,
]


def __getattr__(name: str):
    """Lazily resolve the mutation-harness exports (avoids the circular
    import resilience -> mutation -> checker -> resilience.budget)."""
    if name in _MUTATION_EXPORTS:
        from repro.resilience import mutation

        return getattr(mutation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
