"""A circuit breaker over the fault-isolated worker pool.

The pool already contains one failure: a unit that crashes its worker
``max_retries + 1`` times is quarantined instead of killing the
campaign.  A *server*, though, sees quarantines in sequence — and a
machine-level problem (OOM killer, a bad deploy, a poisoned cache
directory) makes **every** job quarantine, each one burning its full
retry budget before failing.  The breaker cuts that cascade off: after
*threshold* consecutive quarantines it opens, and jobs complete
immediately as structured UNKNOWN-degraded responses (no workers
spawned, nothing stored) until a cooldown :class:`~repro.resilience.retry.Deadline`
passes.  Then one probe job is let through (half-open): success closes
the breaker, another quarantine re-opens it for a fresh cooldown.

States follow the classic automaton::

    CLOSED --threshold consecutive failures--> OPEN
    OPEN   --cooldown expired--> HALF_OPEN (one probe in flight)
    HALF_OPEN --probe success--> CLOSED
    HALF_OPEN --probe failure--> OPEN

Time is injectable (every method takes ``now=``) so the automaton is
unit-testable without sleeping.
"""

from __future__ import annotations

from typing import Optional

from repro.resilience.retry import Deadline

__all__ = ["CLOSED", "CircuitBreaker", "HALF_OPEN", "OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-quarantine breaker with deadline-based cooldown."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures = 0
        self._state = CLOSED
        self._reopen = Deadline.never()
        self._probe_in_flight = False
        self.opened_total = 0
        self.shed_total = 0

    @property
    def state(self) -> str:
        return self._state

    def allow(self, now: Optional[float] = None) -> bool:
        """May the next job reach the pool?

        CLOSED always allows.  OPEN allows nothing until the cooldown
        deadline passes, then transitions to HALF_OPEN and admits
        exactly one probe; further calls shed until the probe resolves
        via :meth:`record_success` / :meth:`record_failure`.
        """
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            if not self._reopen.expired(now):
                self.shed_total += 1
                return False
            self._state = HALF_OPEN
            self._probe_in_flight = False
        if self._probe_in_flight:
            self.shed_total += 1
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        """A pool run completed without quarantine."""
        self._failures = 0
        self._probe_in_flight = False
        self._state = CLOSED

    def record_failure(self, now: Optional[float] = None) -> None:
        """A pool run ended in quarantine."""
        self._probe_in_flight = False
        if self._state == HALF_OPEN:
            self._trip(now)
            return
        self._failures += 1
        if self._failures >= self.threshold:
            self._trip(now)

    def _trip(self, now: Optional[float] = None) -> None:
        self._state = OPEN
        self._failures = 0
        self.opened_total += 1
        if now is None:
            self._reopen = Deadline.after(self.cooldown)
        else:
            self._reopen = Deadline(at=now + self.cooldown)

    def describe(self) -> dict:
        return {
            "state": self._state,
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "opened_total": self.opened_total,
            "shed_total": self.shed_total,
        }
