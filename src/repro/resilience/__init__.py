"""The resilience layer: budgets, checkpoints, pooled and crash-safe runs.

Exhaustive verification at scale needs guarantees this package provides
around the core engines.  The package imports nothing: each guarantee is
its own submodule, imported by name, so the engine loads only the ones
it needs.

* **Bounded resources** — :mod:`repro.resilience.budget`:
  :class:`~repro.resilience.budget.Budget` bundles limits on states,
  edges, wall-clock time and (best-effort) memory, checked cooperatively
  inside every exploration loop.
* **No lost work** — :mod:`repro.resilience.checkpoint`: a
  budget-exhausted search returns an ``UNKNOWN`` verdict carrying
  statistics and an
  :class:`~repro.resilience.checkpoint.ExplorationCheckpoint` that
  resumes the search exactly where it stopped.  Crucially, degradation
  is *sound*: a violation found before the budget tripped is still
  returned as a definitive refutation — a budget can only ever turn
  ``SATISFIED`` into ``UNKNOWN``, never a violation into ``SATISFIED``.
* **Crash-tolerant parallelism** — :mod:`repro.resilience.pool` shards
  verification units across worker processes that are allowed to die:
  heartbeats detect hangs, crashed units retry with backoff, units that
  crash repeatedly are *quarantined* (reported UNKNOWN with the fault
  cause) instead of aborting the sweep, and results merge back
  deterministically so parallel output equals sequential output.
* **Crash-anywhere recovery** — :mod:`repro.resilience.crashpoint`
  plants named *crashpoints* throughout the engine and
  :mod:`repro.resilience.chaos` sweeps them: a campaign is killed
  (``SIGKILL``) at every reachable point, resumed from disk, and the
  resumed verdicts must be byte-identical to an uninterrupted run.
  :mod:`repro.resilience.journal` backs this with an append-only,
  CRC-framed checkpoint journal that self-heals a torn tail, and
  :mod:`repro.resilience.retry` gives every timeout and retry one
  deterministic vocabulary.

The budget, checkpoint and crashpoint modules are the bottom layer the
engine imports; the rest are drivers that import the engine (DESIGN.md,
"Layers").
"""
