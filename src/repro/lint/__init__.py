"""replint — static preflight analysis for user-supplied systems.

Every soundness guarantee in this library (byte-identical cached and
uncached verdicts, deterministic parallel merge, checkpoint resume)
silently assumes the user-supplied protocol, layering and model are
well-formed: deterministic, hashable, decision-irrevocable and
layer-closed in the sense of the paper's layering definition
``S : G -> 2^G \\ {∅}`` (Section 4).  A protocol that iterates a ``set``
into its messages, calls ``random``, or mutates a
:class:`~repro.core.state.GlobalState` in place produces garbage verdicts
with no diagnosis.  This package is the sanitizer for that gap, with
three engines behind one rule registry:

* **AST lint** (:mod:`repro.lint.ast_rules`, :mod:`repro.lint.engine`) —
  purely static single-module rules over protocol/layering/model source:
  ``RP1xx`` protocol rules, ``RP3xx`` harness rules.
* **Contract checks** (:mod:`repro.lint.contracts`) — successor
  determinism, ``failed_at`` monotonicity, decision irrevocability and
  layer closure of a concrete ``(protocol, layering, model)`` triple
  (``RP2xx`` model/layering rules), checked by the consensus checker
  inside its search and by a cheap bounded probe elsewhere, each
  violation reported with a concrete witness edge in the style of the
  checkers' counterexample runs.
* **Deepflint** (:mod:`repro.lint.flow` — :mod:`~repro.lint.callgraph`,
  :mod:`~repro.lint.summaries`, :mod:`~repro.lint.flow_rules`,
  :mod:`~repro.lint.output`) — the interprocedural ``--deep`` pass:
  a module-level call graph, per-function effect summaries computed to
  fixpoint, and two rule families over them — ``RP4xx``
  cache/determinism soundness (transition code transitively reaching
  nondeterminism, global writes, or receiver mutation, witnessed by the
  full call chain) and ``RP5xx`` process-safety (pool/wire payloads
  capturing process-local resources, unpicklable pool entry points).

The authoritative rule inventory is the registry itself: ``repro lint
--list-rules`` renders it, and README's rule table is asserted against
it in ``tests/lint/test_rule_inventory.py`` — this docstring names the
families only, so it cannot go stale as codes are added.

The checkers and explorers run the contract checks by default
(``preflight=False`` / ``--no-preflight`` opts out) and stay
deep-free so checker latency is unchanged; ``repro lint`` runs the
static engine (plus ``--deep`` on request) from the command line, and CI
gates both the shipped source trees and a ``--deep`` self-sweep of
``src/repro`` against a checked-in baseline on every push.
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.lint.ast_rules": ("AST_RULES",),
    "repro.lint.contracts": (
        "ContractWitness", "IllFormedSystemError", "PreflightReport",
        "preflight_system",
    ),
    "repro.lint.engine": (
        "LintError", "LintFinding", "all_rules", "lint_paths", "lint_source",
        "resolve_codes", "rule_table",
    ),
    "repro.lint.flow_rules": ("FLOW_RULES", "deep_lint_paths"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
