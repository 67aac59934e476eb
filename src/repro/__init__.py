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

from repro.core import (
    ConsensusChecker,
    ConsensusReport,
    Execution,
    ExplorationLimitExceeded,
    GlobalState,
    RunWitness,
    ValenceAnalyzer,
    ValenceResult,
    Verdict,
    agree_modulo,
    bivalent_successor,
    build_bivalent_execution,
    build_bivalent_lasso,
    con0_chain,
    find_bivalent,
    is_similarity_connected,
    is_valence_connected,
    lemma_3_6,
    similar,
)
from repro.layerings import (
    Layering,
    PermutationLayering,
    S1MobileLayering,
    StSynchronousLayering,
    SynchronicMPLayering,
    SynchronicRWLayering,
    verify_layering_embedding,
)
from repro.models import (
    AsyncMessagePassingModel,
    MobileModel,
    SharedMemoryModel,
    SynchronousModel,
)
from repro.protocols import (
    EIG,
    FloodSet,
    FullInformationProtocol,
    QuorumDecide,
    WaitForAll,
    decide_constant,
    decide_min_observed,
    decide_own_input,
)
from repro.resilience.budget import Budget, BudgetStats
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckAllCheckpoint,
    ExplorationCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncMessagePassingModel",
    "Budget",
    "BudgetStats",
    "CampaignCheckpoint",
    "CheckAllCheckpoint",
    "ConsensusChecker",
    "ConsensusReport",
    "EIG",
    "ExplorationCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "Execution",
    "ExplorationLimitExceeded",
    "FloodSet",
    "FullInformationProtocol",
    "GlobalState",
    "Layering",
    "MobileModel",
    "PermutationLayering",
    "QuorumDecide",
    "RunWitness",
    "S1MobileLayering",
    "SharedMemoryModel",
    "StSynchronousLayering",
    "SynchronicMPLayering",
    "SynchronicRWLayering",
    "SynchronousModel",
    "ValenceAnalyzer",
    "ValenceResult",
    "Verdict",
    "WaitForAll",
    "agree_modulo",
    "bivalent_successor",
    "build_bivalent_execution",
    "build_bivalent_lasso",
    "con0_chain",
    "decide_constant",
    "decide_min_observed",
    "decide_own_input",
    "find_bivalent",
    "is_similarity_connected",
    "is_valence_connected",
    "lemma_3_6",
    "similar",
    "verify_layering_embedding",
    "__version__",
]
