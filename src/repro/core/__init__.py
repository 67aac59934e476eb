"""Core vocabulary and analyses of the layered framework (Sections 2–4).

Everything here is model-independent: global states, runs, similarity,
valence, connectivity, the layering interface, the bivalent-run engine and
the exhaustive consensus checker.  Concrete models plug in underneath
(:mod:`repro.models`), layerings on top (:mod:`repro.layerings`).
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use, so
#: ``import repro.core.state`` loads no other module of the engine.
_EXPORTS = {
    "repro.core.bivalence": (
        "BivalenceStep", "NoBivalentSuccessor", "bivalent_successor",
        "build_bivalent_execution", "build_bivalent_lasso",
    ),
    "repro.core.cache": (
        "CacheStats", "CachedSystem", "aggregate_stats", "merge_cache_stats",
        "resolve_cache",
    ),
    "repro.core.checker": ("ConsensusChecker", "ConsensusReport", "Verdict"),
    "repro.core.connectivity": (
        "con0_chain", "find_bivalent", "is_valence_connected",
        "lemma_3_3_edges", "lemma_3_4", "lemma_3_5", "lemma_3_6",
        "shared_valence", "valence_graph",
    ),
    "repro.core.exploration": (
        "ExplorationStats", "explore", "reachable_states",
    ),
    "repro.core.faulty": (
        "agree_modulo_refined", "check_crash_display",
        "check_fault_independence", "displays_no_finite_failure",
    ),
    "repro.core.run": ("Execution", "RunWitness", "paste", "pasting_violations"),
    "repro.core.similarity": (
        "is_similarity_connected", "s_diameter", "similar",
        "similarity_graph", "similarity_witnesses",
    ),
    "repro.core.state": (
        "GlobalState", "agree_modulo", "agreement_witnesses",
        "differing_processes",
    ),
    "repro.core.valence": (
        "ExplorationLimitExceeded", "ValenceAnalyzer", "ValenceResult",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
