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

from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    mp_env,
    recv_action,
    stage_action,
)
from repro.models.base import Model
from repro.models.mobile import ENV_MF, MobileModel, omit_action, prefix_action
from repro.models.shared_memory import (
    BOT,
    SharedMemoryModel,
    rw_env,
    step_action,
)
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    snapshot_env,
    update_action,
)
from repro.models.sync import (
    NO_FAILURE,
    SynchronousModel,
    fail_action,
    sync_env,
)

__all__ = [
    "AsyncMessagePassingModel",
    "BOT",
    "ENV_MF",
    "Model",
    "MobileModel",
    "NO_FAILURE",
    "SharedMemoryModel",
    "SnapshotMemoryModel",
    "SynchronousModel",
    "fail_action",
    "flush_action",
    "mp_env",
    "omit_action",
    "prefix_action",
    "recv_action",
    "rw_env",
    "scan_action",
    "snapshot_env",
    "stage_action",
    "step_action",
    "sync_env",
    "update_action",
]
