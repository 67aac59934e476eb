"""Decision problems, simplicial complexes and solvability (Section 7).

The combinatorial layer of the paper's characterization results:
simplexes and complexes, decision problems ``<I, O, Δ>``,
k-thick-connectivity, coverings/generalized valence, s-diameter bounds,
the task checker (the consensus checker's search, with membership in
``Δ(input facet)`` as its state predicate) and the solvability drivers
for Theorem 7.2 / Corollary 7.3 — plus a catalog of concrete tasks
spanning the solvable/unsolvable frontier.
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.tasks.catalog": (
        "CATALOG", "EXPECTED_SOLVABLE", "binary_consensus", "constant_task",
        "epsilon_agreement", "identity_task", "k_set_agreement",
        "leader_election",
    ),
    "repro.tasks.checker": ("TaskChecker", "TaskReport"),
    "repro.tasks.complex": (
        "Complex", "EMPTY_COMPLEX", "closure", "full_complex",
        "intersection_exact",
    ),
    "repro.tasks.covering": (
        "Covering", "OutcomeAnalyzer", "OutcomeResult",
        "always_valence_connected", "bipartition_coverings",
        "valence_graph_for_covering",
    ),
    "repro.tasks.diameter": (
        "check_lemma_7_6", "layer_image", "lemma_7_6_bound",
        "measured_layer_diameters", "theorem_7_7_series",
    ),
    "repro.tasks.problem": ("DecisionProblem", "delta_from_rule"),
    "repro.tasks.simplex": ("EMPTY_SIMPLEX", "Simplex"),
    "repro.tasks.solvability": (
        "SolvabilityRow", "corollary_7_3_row", "defeat_in_every_model",
        "one_resilient_layerings", "theorem_7_2_consistency",
        "verify_protocol_solves",
    ),
    "repro.tasks.thick": (
        "input_adjacency_graph", "is_k_thick_connected",
        "problem_is_k_thick_connected", "similarity_connected_input_sets",
        "thick_graph", "witnessing_subproblem",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
