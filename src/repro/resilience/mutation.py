"""Checker fault injection: mutation-test the verification engine itself.

Theorem 4.2 has an executable converse in this library: the checker must
*refute* every consensus protocol placed in a valence-connected layered
model.  But passing on well-behaved protocols is weak evidence that the
checker actually catches violations — a checker that always printed
``SATISFIED`` would pass those tests too.  This module is the robustness
analogue of the theorem's converse: it **injects known faults** into
shipped protocols, producing mutants that *must* be refuted, and asserts
the checker detects every injected violation class with a replayable
witness.

The operators each target one clause of the "system for consensus"
definition (Section 3):

* ``flip-decision`` — one process reports the negation of its decided
  binary value: two non-failed processes must disagree (AGREEMENT).
* ``forge-decision`` — every process reports a sentinel value that is no
  process's input (VALIDITY; agreement still holds, so the validity
  clause is what must catch it).
* ``decide-early`` — every process decides one round before the
  agreement-safe round ``t+1``, exactly the doomed candidate of
  Corollary 6.3 (AGREEMENT).
* ``overwrite-decision`` — one process exposes a tentative decision one
  round early and lets the final round revise it, violating the
  write-once decision-register condition (WRITE_ONCE).
* ``never-decide`` — one process's decision register is disconnected: a
  fair run starves it forever (DECISION, found as a lasso).
* ``drop-relay`` — one process participates in the first exchange but
  never relays afterwards, breaking the full-information forwarding the
  ``t+1``-round protocols rely on (AGREEMENT under the ``S^t``
  adversary's schedule).
* ``stall-on-conflict`` — one process withholds its decision whenever
  its view still contains more than one value.  Unlike ``never-decide``
  the fault is *schedule-dependent*: unanimous-input runs terminate
  normally, only the adversarial mixed-input runs starve the victim
  forever (DECISION, found as a lasso on those runs).

:func:`mutation_campaign` runs every (protocol, operator) pair through
the exhaustive checker in the ``S^t`` synchronous system, replays each
witness through the layering to confirm it reproduces the violation, and
:func:`mutation_kill_table` renders the resulting kill-rate table in the
style of :mod:`repro.analysis.reports`.  The tests require a 100% kill
rate on FloodSet and EIG — we validate the validator.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.checker import (
    ConsensusChecker,
    ConsensusReport,
    Verdict,
    replay_witness,
)
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.base import MessagePassingProtocol
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget, DEFAULT_MAX_STATES

#: Sentinel decided by the ``forge-decision`` mutant — never an input.
FORGED_VALUE = "forged-⊥"


def _value_pool(local) -> Optional[frozenset]:
    """The set of values a local state has seen (protocol-agnostic).

    Understands the two view shapes shipped in :mod:`repro.protocols`:
    flooding states carry a ``known`` set, EIG states carry a ``tree`` of
    ``(label, value)`` nodes.  Returns None for unrecognized states.
    """
    known = getattr(local, "known", None)
    if known is not None:
        return frozenset(known)
    tree = getattr(local, "tree", None)
    if tree is not None:
        return frozenset(value for _, value in tree)
    return None


def _round_of(local) -> Optional[int]:
    """The phase counter of a local state, or None if it has none."""
    return getattr(local, "round", None)


class MutantProtocol(MessagePassingProtocol):
    """Base wrapper: delegates everything to the wrapped protocol.

    Subclasses override exactly the hook they corrupt.  The wrapped
    protocol must expose a ``rounds`` property and carry ``round`` /
    ``decided`` fields plus a value pool in its local states (FloodSet
    and EIG both do) — operators raise ``TypeError`` otherwise.
    """

    #: Operator identifier, overridden per subclass.
    operator = "identity"
    #: The violation classes the checker is expected to report.
    expected: frozenset = frozenset()

    def __init__(self, inner: MessagePassingProtocol) -> None:
        if not hasattr(inner, "rounds"):
            raise TypeError(
                f"{type(inner).__name__} has no rounds bound; "
                "mutation operators need round-structured protocols"
            )
        self._inner = inner

    @property
    def inner(self) -> MessagePassingProtocol:
        """The unmutated protocol under the wrapper."""
        return self._inner

    def name(self) -> str:
        return f"{self.operator}[{self._inner.name()}]"

    def initial_local(self, i: int, n: int, input_value: Hashable) -> Hashable:
        return self._inner.initial_local(i, n, input_value)

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        return self._inner.decision(i, n, local)

    def outgoing(self, i: int, n: int, local: Hashable) -> Mapping[int, Hashable]:
        return self._inner.outgoing(i, n, local)

    def transition(
        self, i: int, n: int, local: Hashable, received: Mapping[int, Hashable]
    ) -> Hashable:
        return self._inner.transition(i, n, local, received)

    # The victim of single-process faults: the last process by default.
    # Operators whose fault only matters when the victim's *view* can be
    # deficient override this — S^t blocks message *prefixes*, so the
    # last process only misses a message when everyone does, while
    # process 0 can be blocked alone and catch up via round-2 relays.
    @staticmethod
    def _victim(n: int) -> int:
        return n - 1


class FlipDecisionMutant(MutantProtocol):
    """One process reports the negation of its decided binary value."""

    operator = "flip-decision"
    expected = frozenset({Verdict.AGREEMENT})

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        value = self._inner.decision(i, n, local)
        if value in (0, 1) and i == self._victim(n):
            return 1 - value
        return value


class ForgeDecisionMutant(MutantProtocol):
    """Every process decides a sentinel value that is nobody's input."""

    operator = "forge-decision"
    expected = frozenset({Verdict.VALIDITY})

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        value = self._inner.decision(i, n, local)
        if value is not None:
            return FORGED_VALUE
        return value


class DecideEarlyMutant(MutantProtocol):
    """Decide one round before the agreement-safe round.

    Implemented in ``transition`` (not ``decision``) so the premature
    value is *frozen into the local state* and stays the final answer —
    this is exactly the doomed ``rounds - 1`` candidate of Corollary 6.3,
    not a write-once violation.
    """

    operator = "decide-early"
    expected = frozenset({Verdict.AGREEMENT})

    def transition(
        self, i: int, n: int, local: Hashable, received: Mapping[int, Hashable]
    ) -> Hashable:
        new_local = self._inner.transition(i, n, local, received)
        if (
            getattr(new_local, "decided", None) is None
            and _round_of(new_local) == self._inner.rounds - 1
        ):
            pool = _value_pool(new_local)
            if pool:
                return dataclasses.replace(new_local, decided=min(pool))
        return new_local


class OverwriteDecisionMutant(MutantProtocol):
    """One process exposes a tentative decision the final round revises.

    The decision register reads ``min(seen so far)`` one round early; if
    the last exchange brings a smaller value, the register silently
    changes — precisely the write-once violation condition (ii) of
    Section 3 exists to forbid.  The victim is process 0: under ``S^t``'s
    prefix-blocking adversary it is the one process that can miss a
    round-1 message alone and then receive the missing (smaller) value
    through a round-2 relay.
    """

    operator = "overwrite-decision"
    expected = frozenset({Verdict.WRITE_ONCE})

    @staticmethod
    def _victim(n: int) -> int:
        return 0

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        value = self._inner.decision(i, n, local)
        if value is not None:
            return value
        if i == self._victim(n) and _round_of(local) == self._inner.rounds - 1:
            pool = _value_pool(local)
            if pool:
                return min(pool)
        return value


class NeverDecideMutant(MutantProtocol):
    """One process's decision register is disconnected — it never decides."""

    operator = "never-decide"
    expected = frozenset({Verdict.DECISION})

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        if i == self._victim(n):
            return None
        return self._inner.decision(i, n, local)


class DropRelayMutant(MutantProtocol):
    """One process stops relaying after the first exchange.

    The full-information pattern needs every process to forward what it
    heard; a process that only ever contributes its own input lets the
    ``S^t`` adversary hide a failed process's value from some (but not
    all) survivors.
    """

    operator = "drop-relay"
    expected = frozenset({Verdict.AGREEMENT})

    def outgoing(self, i: int, n: int, local: Hashable) -> Mapping[int, Hashable]:
        if i == self._victim(n) and (_round_of(local) or 0) >= 1:
            return {}
        return self._inner.outgoing(i, n, local)


class StallOnConflictMutant(MutantProtocol):
    """One process never decides while its view holds conflicting values.

    A termination fault that only an *adversarial schedule* exposes: on
    unanimous inputs the victim's value pool is a singleton and it
    decides like the original protocol (so a checker that only tried
    happy-path inputs would pass it), but on mixed inputs the full
    ``t+1``-round exchange fills the pool with both values and the
    victim starves forever — the checker must find the DECISION lasso on
    exactly those runs.
    """

    operator = "stall-on-conflict"
    expected = frozenset({Verdict.DECISION})

    def decision(self, i: int, n: int, local: Hashable) -> Optional[Hashable]:
        if i == self._victim(n):
            pool = _value_pool(local)
            if pool is not None and len(pool) > 1:
                return None
        return self._inner.decision(i, n, local)


#: All shipped operators, in report order.
MUTATION_OPERATORS: tuple[type[MutantProtocol], ...] = (
    FlipDecisionMutant,
    ForgeDecisionMutant,
    DecideEarlyMutant,
    OverwriteDecisionMutant,
    NeverDecideMutant,
    DropRelayMutant,
    StallOnConflictMutant,
)


@dataclass(frozen=True)
class MutantResult:
    """One (protocol, operator) entry of the mutation campaign.

    Attributes:
        protocol_name: the unmutated protocol's report name.
        operator: the mutation operator identifier.
        expected: the violation classes that would count as a kill.
        report: the checker's full report on the mutant.
        killed: the checker refuted the mutant with an expected verdict.
        witness_ok: the violation witness replayed successfully through
            the layered system (see :func:`replay_witness`).
    """

    protocol_name: str
    operator: str
    expected: frozenset
    report: ConsensusReport
    killed: bool
    witness_ok: bool

    @property
    def verdict(self) -> Verdict:
        """The checker's verdict on this mutant."""
        return self.report.verdict


def default_subjects(t: int) -> list[Callable[[], MessagePassingProtocol]]:
    """The agreement-safe protocols the campaign mutates by default."""
    return [lambda: FloodSet(t + 1), lambda: EIG(t + 1)]


def mutation_campaign(
    subjects: Optional[
        Sequence[Callable[[], MessagePassingProtocol]]
    ] = None,
    n: int = 3,
    t: int = 1,
    max_states: Union[int, Budget] = DEFAULT_MAX_STATES,
    operators: Sequence[type[MutantProtocol]] = MUTATION_OPERATORS,
) -> list[MutantResult]:
    """Run every (subject, operator) pair through the exhaustive checker.

    Each subject factory builds a fresh agreement-safe protocol (default:
    FloodSet and EIG at ``t + 1`` rounds); each operator corrupts one
    copy; the ``S^t`` layered synchronous system hunts the injected
    violation.  Returns one :class:`MutantResult` per pair.
    """
    results = []
    for factory in subjects if subjects is not None else default_subjects(t):
        for operator in operators:
            mutant = operator(factory())
            layering = StSynchronousLayering(SynchronousModel(mutant, n, t))
            # preflight=False: this harness validates the *checker's* own
            # violation detection, so the deliberately ill-formed mutants
            # must reach the exploration rather than be refused upfront
            # by the contract preflight as ILL_FORMED.
            report = ConsensusChecker(
                layering, max_states, preflight=False
            ).check_all(layering.model)
            killed = report.verdict in operator.expected
            witness_ok = killed and replay_witness(layering, report)
            results.append(
                MutantResult(
                    protocol_name=mutant.inner.name(),
                    operator=operator.operator,
                    expected=operator.expected,
                    report=report,
                    killed=killed,
                    witness_ok=witness_ok,
                )
            )
    return results


def kill_rate(results: Sequence[MutantResult]) -> float:
    """Fraction of mutants killed with a replaying witness (0.0–1.0)."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.killed and r.witness_ok) / len(results)


def mutation_kill_table(results: Sequence[MutantResult]) -> str:
    """Render the campaign as a kill-rate table (reports.py style)."""
    from repro.analysis.reports import render_table

    rows = []
    for r in results:
        rows.append(
            [
                r.protocol_name,
                r.operator,
                "|".join(sorted(v.value for v in r.expected)),
                r.verdict.value,
                r.killed,
                r.witness_ok,
                r.report.states_explored,
            ]
        )
    table = render_table(
        [
            "protocol",
            "mutant",
            "expected",
            "verdict",
            "killed",
            "witness",
            "states",
        ],
        rows,
    )
    rate = kill_rate(results)
    return (
        f"{table}\n\nmutation kill rate: "
        f"{sum(1 for r in results if r.killed and r.witness_ok)}"
        f"/{len(results)} ({rate:.0%})"
    )
