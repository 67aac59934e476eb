"""Admission control: the bounded front door of the job server.

Every submission passes one :meth:`AdmissionController.decide` call
before anything is enqueued or persisted.  The controller enforces the
three shed conditions — draining, per-tenant quota exhausted, queue
full — and returns a structured decision; the server translates a
rejection into a ``REJECTED`` response with the machine-readable
reason.  Nothing here blocks and nothing grows without bound: overload
is shed, never buffered.

Tenant quotas reuse :class:`repro.resilience.budget.Budget` /
``BudgetMeter`` — the same cooperative accounting the checker's
exploration budgets use.  A tenant's completed jobs charge their
explored-state counts to the tenant's meter; once the meter reports a
tripped limit the tenant is shed until the server restarts (or, for
time-windowed budgets, until operators restart with a fresh window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience.budget import Budget, BudgetMeter

__all__ = [
    "Admission",
    "AdmissionController",
    "REJECT_DRAINING",
    "REJECT_INVALID",
    "REJECT_QUEUE_FULL",
    "REJECT_QUOTA",
]

#: Machine-readable rejection reasons (the ``reason`` field of a
#: REJECTED response).  ``invalid-job`` is produced by the server's
#: validation layer, the rest by :meth:`AdmissionController.decide`.
REJECT_DRAINING = "draining"
REJECT_QUOTA = "quota-exhausted"
REJECT_QUEUE_FULL = "queue-full"
REJECT_INVALID = "invalid-job"


@dataclass(frozen=True)
class Admission:
    """One admission decision: accepted, or rejected with a reason."""

    accepted: bool
    reason: Optional[str] = None
    detail: str = ""


class _TenantQuota:
    """One tenant's budget meter plus its shed state."""

    __slots__ = ("meter",)

    def __init__(self, budget: Budget) -> None:
        self.meter: BudgetMeter = budget.meter()

    def charge(self, states: int) -> None:
        self.meter.states += states
        self.meter.poll()

    @property
    def exhausted(self) -> Optional[str]:
        return self.meter.poll()


class AdmissionController:
    """Decides, counts, and never queues.

    *queue_limit* bounds how many accepted-but-unfinished jobs may exist
    at once (the server passes its current depth to :meth:`decide`).
    *tenant_budget* is the per-tenant quota template; each new tenant
    gets a fresh meter from it.  ``None`` disables quotas.
    """

    def __init__(
        self,
        queue_limit: int,
        tenant_budget: Optional[Budget] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.queue_limit = queue_limit
        self._tenant_budget = tenant_budget
        self._tenants: dict[str, _TenantQuota] = {}
        self.draining = False
        self.accepted = 0
        self.rejected: dict[str, int] = {}

    # -- decisions ---------------------------------------------------------
    def decide(self, tenant: str, depth: int) -> Admission:
        """Admit or shed one submission given the current queue depth."""
        if self.draining:
            return self._reject(
                REJECT_DRAINING, "server is draining; resubmit after restart"
            )
        quota = self._quota(tenant)
        if quota is not None:
            tripped = quota.exhausted
            if tripped is not None:
                return self._reject(
                    REJECT_QUOTA,
                    f"tenant {tenant!r} exhausted its {tripped} quota",
                )
        if depth >= self.queue_limit:
            return self._reject(
                REJECT_QUEUE_FULL,
                f"admission queue is at its bound ({self.queue_limit})",
            )
        self.accepted += 1
        return Admission(accepted=True)

    def reject_invalid(self, detail: str) -> Admission:
        """Count and shape a validation rejection."""
        return self._reject(REJECT_INVALID, detail)

    def _reject(self, reason: str, detail: str) -> Admission:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return Admission(accepted=False, reason=reason, detail=detail)

    # -- accounting --------------------------------------------------------
    def charge(self, tenant: str, states: int) -> None:
        """Charge a completed job's explored states to its tenant."""
        quota = self._quota(tenant)
        if quota is not None and states:
            quota.charge(states)

    def _quota(self, tenant: str) -> Optional[_TenantQuota]:
        if self._tenant_budget is None:
            return None
        quota = self._tenants.get(tenant)
        if quota is None:
            quota = self._tenants[tenant] = _TenantQuota(self._tenant_budget)
        return quota

    # -- inspection --------------------------------------------------------
    def stats(self) -> dict:
        return {
            "queue_limit": self.queue_limit,
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected.items())),
            "tenants": {
                name: {
                    "states": quota.meter.states,
                    "exhausted": quota.exhausted,
                }
                for name, quota in sorted(self._tenants.items())
            },
        }
