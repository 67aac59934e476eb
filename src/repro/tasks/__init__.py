"""Decision problems, simplicial complexes and solvability (Section 7).

The combinatorial layer of the paper's characterization results:
simplexes and complexes, decision problems ``<I, O, Δ>``,
k-thick-connectivity, coverings/generalized valence, s-diameter bounds,
the task checker (the consensus checker's search, with membership in
``Δ(input facet)`` as its state predicate) and the solvability drivers
for Theorem 7.2 / Corollary 7.3 — plus a catalog of concrete tasks
spanning the solvable/unsolvable frontier.
"""

from repro.tasks.catalog import (
    CATALOG,
    EXPECTED_SOLVABLE,
    binary_consensus,
    constant_task,
    epsilon_agreement,
    identity_task,
    k_set_agreement,
    leader_election,
)
from repro.tasks.checker import TaskChecker, TaskReport
from repro.tasks.complex import (
    EMPTY_COMPLEX,
    Complex,
    closure,
    full_complex,
    intersection_exact,
)
from repro.tasks.covering import (
    Covering,
    OutcomeAnalyzer,
    OutcomeResult,
    always_valence_connected,
    bipartition_coverings,
    valence_graph_for_covering,
)
from repro.tasks.diameter import (
    check_lemma_7_6,
    layer_image,
    lemma_7_6_bound,
    measured_layer_diameters,
    theorem_7_7_series,
)
from repro.tasks.problem import DecisionProblem, delta_from_rule
from repro.tasks.simplex import EMPTY_SIMPLEX, Simplex
from repro.tasks.solvability import (
    SolvabilityRow,
    corollary_7_3_row,
    defeat_in_every_model,
    one_resilient_layerings,
    theorem_7_2_consistency,
    verify_protocol_solves,
)
from repro.tasks.thick import (
    input_adjacency_graph,
    is_k_thick_connected,
    problem_is_k_thick_connected,
    similarity_connected_input_sets,
    thick_graph,
    witnessing_subproblem,
)

__all__ = [
    "CATALOG",
    "Complex",
    "Covering",
    "DecisionProblem",
    "EMPTY_COMPLEX",
    "EMPTY_SIMPLEX",
    "EXPECTED_SOLVABLE",
    "OutcomeAnalyzer",
    "OutcomeResult",
    "Simplex",
    "SolvabilityRow",
    "TaskChecker",
    "TaskReport",
    "always_valence_connected",
    "binary_consensus",
    "bipartition_coverings",
    "check_lemma_7_6",
    "closure",
    "constant_task",
    "corollary_7_3_row",
    "defeat_in_every_model",
    "delta_from_rule",
    "epsilon_agreement",
    "full_complex",
    "identity_task",
    "input_adjacency_graph",
    "intersection_exact",
    "is_k_thick_connected",
    "k_set_agreement",
    "layer_image",
    "leader_election",
    "lemma_7_6_bound",
    "measured_layer_diameters",
    "one_resilient_layerings",
    "problem_is_k_thick_connected",
    "similarity_connected_input_sets",
    "theorem_7_2_consistency",
    "theorem_7_7_series",
    "thick_graph",
    "valence_graph_for_covering",
    "verify_protocol_solves",
    "witnessing_subproblem",
]
