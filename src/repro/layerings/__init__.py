"""The paper's layering functions (Sections 4–6).

* :class:`S1MobileLayering` — ``S_1`` over ``M^mf`` (Section 5);
* :class:`StSynchronousLayering` — ``S^t`` over the ``t``-resilient
  synchronous model (Section 6);
* :class:`SynchronicRWLayering` — ``S^rw`` over ``M^rw`` (Section 5.1);
* :class:`SynchronicMPLayering` — the message-passing analogue of
  ``S^rw``;
* :class:`PermutationLayering` — ``S^per``, the immediate-snapshot
  analogue for message passing (Section 5.1);
* :class:`IteratedSnapshotLayering` — the iterated-immediate-snapshot
  layering over snapshot memory (the paper's announced full-version
  extension).

Every layering expands its layer actions into primitive model actions, so
the monotone-embedding property that makes it a *layering* (Section 4) is
constructive and testable (:func:`verify_layering_embedding`).
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.layerings.base": (
        "Layering", "SuccessorSystem", "verify_layering_embedding",
    ),
    "repro.layerings.iterated_snapshot": (
        "IteratedSnapshotLayering", "blocks_schedule", "short_blocks_schedule",
        "solo_diamond", "split_merge_edges",
    ),
    "repro.layerings.permutation": (
        "PermutationLayering", "diamond", "full_schedule", "pair_schedule",
        "short_schedule", "transposition_edges",
    ),
    "repro.layerings.s1_mobile": ("S1MobileLayering", "similarity_chain"),
    "repro.layerings.st_synchronous": ("StSynchronousLayering", "st_action"),
    "repro.layerings.synchronic_mp": (
        "SynchronicMPLayering", "absent_mp", "sync_mp",
    ),
    "repro.layerings.synchronic_rw": (
        "SynchronicRWLayering", "absent_diamond", "absent_rw", "sync_rw",
        "y_chain",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
