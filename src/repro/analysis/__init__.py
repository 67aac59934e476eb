"""Experiment drivers: the paper's results as runnable analyses.

* :mod:`repro.analysis.lemmas` — witness-producing lemma checks;
* :mod:`repro.analysis.impossibility` — Section 5 (Corollaries 5.2, 5.4,
  the permutation-layering FLP) with constructive adversaries;
* :mod:`repro.analysis.sync_lower_bound` — Section 6 (Lemmas 6.1–6.4,
  Corollary 6.3) with failure schedules and tightness verification;
* :mod:`repro.analysis.solvability_experiments` — Section 7 (the
  solvability matrix, Lemma 7.1, the diameter tables);
* :mod:`repro.analysis.statistics` / :mod:`repro.analysis.reports` —
  ablation measurements and table rendering.
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.analysis.impossibility": (
        "Refutation", "corollary_5_2", "corollary_5_4", "forever_bivalent_run",
        "permutation_impossibility", "refute_candidate", "standard_layerings",
    ),
    "repro.analysis.lemmas": (
        "LemmaReport", "lemma_3_1", "lemma_3_2", "lemma_3_6_report",
        "lemma_4_1", "lemma_5_1", "lemma_5_3",
    ),
    "repro.analysis.reports": ("render_table", "render_verdict_rows"),
    "repro.analysis.solvability_experiments": (
        "CANDIDATES", "MatrixEntry", "SOLVERS", "diameter_table",
        "lemma_7_1_run", "solvability_matrix", "theorem_7_7_table",
    ),
    "repro.analysis.statistics": (
        "FilteredLayering", "LayerStats", "layer_statistics", "submodel_size",
    ),
    "repro.analysis.sync_lower_bound": (
        "LowerBoundRow", "defeat_fast_candidates", "lemma_6_1", "lemma_6_2",
        "lemma_6_4", "make_st_system", "synchronous_bivalent_start",
        "verify_tight_protocols",
    ),
    "repro.analysis.sync_tasks": (
        "check_solves_in_rounds", "lemma_7_5_consistency",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
