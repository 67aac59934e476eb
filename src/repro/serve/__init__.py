"""The verification job server (``repro serve``).

Composes the resilience layer's primitives — budgets, deadlines, the
fault-isolated pool, the CRC-framed journal — into a long-running
process: bounded admission with explicit shedding, per-tenant quotas,
fingerprint dedupe, a durable content-addressed verdict store, a
circuit breaker over worker quarantine, and SIGTERM graceful drain.
Since PR 9 the wire is hostile territory too: streaming verdicts with
resumable cursors, heartbeat keepalives, reaped write deadlines, a
reconnecting :class:`ResilientClient`, verdict-store GC, and the
:mod:`repro.serve.netchaos` fault-injecting proxy that proves all of it.
See :mod:`repro.serve.server` for the architecture overview.
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.serve.admission": (
        "Admission", "AdmissionController", "REJECT_DRAINING",
        "REJECT_INVALID", "REJECT_QUEUE_FULL", "REJECT_QUOTA",
    ),
    "repro.serve.breaker": ("CircuitBreaker",),
    "repro.serve.client": (
        "ProtocolError", "ResilientClient", "ServeClient", "ServerGone",
        "wait_for_endpoint",
    ),
    "repro.serve.jobs": ("InvalidJob", "JobSpec", "run_job"),
    "repro.serve.netchaos": ("FaultSchedule", "NetChaosProxy", "NetFault"),
    "repro.serve.server": ("ServeConfig", "VerifyServer", "run_serve"),
    "repro.serve.store": ("StoreCorrupt", "VerdictStore"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
