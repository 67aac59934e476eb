"""Concrete models of computation (Sections 5–6).

Five models, each binding a deterministic protocol to ``n`` processes:

* :class:`MobileModel` — ``M^mf``, synchronous with one mobile omission
  per round (Section 5);
* :class:`SynchronousModel` — the ``t``-resilient synchronous
  message-passing model (Section 6);
* :class:`SharedMemoryModel` — ``M^rw``, asynchronous single-writer/
  multi-reader registers (Section 5.1);
* :class:`AsyncMessagePassingModel` — asynchronous message passing with
  local phases (Section 5.1);
* :class:`SnapshotMemoryModel` — atomic-snapshot memory (the paper's
  announced full-version extension).
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.models.async_mp": (
        "AsyncMessagePassingModel", "flush_action", "mp_env", "recv_action",
        "stage_action",
    ),
    "repro.models.base": ("Model",),
    "repro.models.mobile": (
        "ENV_MF", "MobileModel", "omit_action", "prefix_action",
    ),
    "repro.models.shared_memory": (
        "BOT", "SharedMemoryModel", "rw_env", "step_action",
    ),
    "repro.models.snapshot": (
        "SnapshotMemoryModel", "scan_action", "snapshot_env", "update_action",
    ),
    "repro.models.sync": (
        "NO_FAILURE", "SynchronousModel", "fail_action", "sync_env",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
