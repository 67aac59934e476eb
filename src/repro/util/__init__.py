"""Utility substrates shared across the library.

The utilities are intentionally dependency-free: graph algorithms, canonical
encodings and permutation helpers are small enough to own, and owning them
keeps every step of the paper's arguments inspectable (e.g. the transposition
chains used by the permutation-layering connectivity proof are produced by
:func:`repro.util.orderings.transposition_chain` and can be unit-tested
directly against the combinatorial claim in the paper).
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.util.graphs": (
        "Graph", "connected_components", "diameter", "is_connected",
        "shortest_path", "shortest_path_lengths",
    ),
    "repro.util.orderings": (
        "adjacent_transposition_chain", "all_permutations",
        "apply_transposition", "rotations",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
