"""repro — an executable reproduction of Moses & Rajsbaum, PODC 1998.

*The Unified Structure of Consensus: a Layered Analysis Approach*
introduced **layering** — a successor function carving a submodel out of a
model of distributed computation — and showed that one connectivity
analysis of a single layer uniformly yields the classical consensus
impossibility results and lower bounds.

This library mechanizes the paper: models of computation, layerings,
valence/similarity connectivity, the bivalent-run constructions, the
synchronous ``t+1``-round lower bound and the Section 7 decision-problem
characterization are all concrete, executable and exhaustively checkable
objects for small process counts.  Quick taste::

    from repro import (
        FloodSet, SynchronousModel, StSynchronousLayering, ConsensusChecker,
    )

    # FloodSet deciding after t rounds is doomed (Corollary 6.3):
    doomed = SynchronousModel(FloodSet(rounds=1), n=3, t=1)
    report = ConsensusChecker(StSynchronousLayering(doomed)).check_all(doomed)
    assert report.verdict.value == "agreement-violation"
    print(report.execution.actions)   # the failure schedule that does it

    # ... while t+1 rounds pass, exhaustively:
    safe = SynchronousModel(FloodSet(rounds=2), n=3, t=1)
    assert ConsensusChecker(StSynchronousLayering(safe)).check_all(safe).satisfied

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment-by-experiment reproduction record.
"""

import importlib
import sys
from collections.abc import Callable
from typing import Any

__version__ = "1.0.0"

#: Where each top-level name is defined: loading ``repro`` loads none of
#: them, so ``import repro.core.state`` or ``repro.resilience.budget``
#: does not load the engine.  A name is imported on first use.
_EXPORTS = {
    "repro.core.bivalence": (
        "bivalent_successor", "build_bivalent_execution", "build_bivalent_lasso",
    ),
    "repro.core.checker": ("ConsensusChecker", "ConsensusReport", "Verdict"),
    "repro.core.connectivity": (
        "con0_chain", "find_bivalent", "is_valence_connected", "lemma_3_6",
    ),
    "repro.core.run": ("Execution", "RunWitness"),
    "repro.core.similarity": ("is_similarity_connected", "similar"),
    "repro.core.state": ("GlobalState", "agree_modulo"),
    "repro.core.valence": (
        "ExplorationLimitExceeded", "ValenceAnalyzer", "ValenceResult",
    ),
    "repro.layerings.base": ("Layering", "verify_layering_embedding"),
    "repro.layerings.permutation": ("PermutationLayering",),
    "repro.layerings.s1_mobile": ("S1MobileLayering",),
    "repro.layerings.st_synchronous": ("StSynchronousLayering",),
    "repro.layerings.synchronic_mp": ("SynchronicMPLayering",),
    "repro.layerings.synchronic_rw": ("SynchronicRWLayering",),
    "repro.models.async_mp": ("AsyncMessagePassingModel",),
    "repro.models.mobile": ("MobileModel",),
    "repro.models.shared_memory": ("SharedMemoryModel",),
    "repro.models.sync": ("SynchronousModel",),
    "repro.protocols.candidates": ("QuorumDecide", "WaitForAll"),
    "repro.protocols.eig": ("EIG",),
    "repro.protocols.floodset": ("FloodSet",),
    "repro.protocols.full_information": (
        "FullInformationProtocol", "decide_constant", "decide_min_observed",
        "decide_own_input",
    ),
    "repro.resilience.budget": ("Budget", "BudgetStats"),
    "repro.resilience.checkpoint": (
        "CampaignCheckpoint", "CheckAllCheckpoint", "ExplorationCheckpoint",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")


def _lazy_getattr(
    package: str, exports: dict[str, tuple[str, ...]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package* serving the names of
    *exports* (submodule -> names): each is imported from its submodule
    on first use and then kept on the package."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(__name__, _EXPORTS)
