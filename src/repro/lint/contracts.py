"""The ``RP2xx`` contract rules in the replint registry.

The checks themselves live in the engine, :mod:`repro.core.contracts`,
so the checkers run them without loading the linter.  This module
registers their codes (``repro lint --list-rules``, ``--select`` and
``--ignore`` cover them like every other rule) and re-exports the
engine's names, so ``repro.lint.contracts`` keeps its interface.
"""

from __future__ import annotations

from repro.core.contracts import (  # noqa: F401  (re-exported)
    CONTRACT_RULES,
    DEFAULT_DETERMINISM_SAMPLES,
    DEFAULT_EMBEDDING_SAMPLES,
    DEFAULT_PROBE_STATES,
    RP201,
    RP202,
    RP203,
    RP204,
    RP205,
    ContractGuard,
    ContractWitness,
    IllFormedSystemError,
    PreflightReport,
    _clear_memo,
    independent_view,
    preflight_once,
    preflight_system,
)
from repro.lint.engine import register_contract_rule

for _code, _summary in CONTRACT_RULES.items():
    register_contract_rule(_code, _summary)
