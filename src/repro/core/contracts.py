"""Contract checks: the model-side hygiene every analysis assumes.

Static lint cannot see through factories, closures or data flow; this
module is the dynamic backstop.  One :class:`ContractGuard` checks the
states a search expands.  The consensus checker runs it inside its own
search, on edges it computes anyway (see
:class:`~repro.core.checker.ConsensusChecker`; the task checker runs the
same search); :func:`preflight_system` drives it with a bounded
breadth-first probe for the engines that still check before they
explore (the explorers, ``repro lint --protocol``).  The conditions
(:data:`CONTRACT_RULES`):

* **RP201 — successor determinism**: two calls to ``successors`` on the
  same state must return identical ``(action, child)`` lists.  Cached
  verdicts, the deterministic parallel merge and checkpoint resume are
  all meaningless without this (the paper analyzes deterministic
  protocols throughout; all nondeterminism lives in the environment's
  *choice* among actions, never inside one action).
* **RP202 — layer closure**: every probed state has a nonempty successor
  set (the layering definition is ``S : G -> 2^G \\ {∅}``, and the
  paper's runs are infinite), and for a constructive
  :class:`~repro.layerings.base.Layering` each sampled layer action's
  expansion must be a legal model execution
  (:func:`~repro.layerings.base.embedding_trace`, one walk over the
  layer that steps each distinct prefix once) — the monotone-embedding
  clause of the layering definition — whose endpoint is the child
  ``successors`` returned for that action, and ``successors`` must
  label its children with exactly the state's ``layer_actions``, in
  order.
* **RP203 — Faulty monotonicity**: the ``failed_at`` set never shrinks
  along an edge.  ``Faulty`` membership is a property of every run
  through a state (Section 2); a resurrected process would break the
  checker's starvation analysis.
* **RP204 — decision irrevocability**: decisions are write-once along
  every probed edge (condition (ii) of "system for consensus",
  Section 3).
* **RP205 — state hashability**: every probed state (and hence its
  local-state components) must be hashable, or visited sets, memo tables
  and ``intern()`` all fail.

Each violation is reported as a :class:`LintFinding` carrying a
:class:`ContractWitness` — the concrete ``(state, action, child)`` edge
exhibiting the violation, in the style of the checkers' counterexample
runs.

Checks read an independent view of the system where a second call
matters (:func:`independent_view`: the uncached base, and for a
layering a copy without its protocol tables; a memoized successor
function would trivially pass the determinism check);
:func:`preflight_once` memoizes a clean probe per system object so
repeated engine invocations pay once.

This module belongs to the engine and imports nothing of the linter;
:mod:`repro.lint.contracts` registers the codes with the rule registry
(so ``repro lint`` lists, selects and ignores them) and re-exports this
module's names.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

from repro.core.state import GlobalState, StateFacts, revoked_decision

#: The contract rule codes and their one-line summaries.
CONTRACT_RULES = {
    "RP201": (
        "successor determinism: two successors() calls on one state must "
        "return identical (action, child) lists"
    ),
    "RP202": (
        "layer closure: S(G) is nonempty at every state and each layer "
        "action embeds into a legal model execution"
    ),
    "RP203": "Faulty monotonicity: failed_at never shrinks along an edge",
    "RP204": (
        "decision irrevocability: decisions are write-once along every edge"
    ),
    "RP205": (
        "state hashability: probed states (and their components) must be "
        "hashable for interning and visited sets"
    ),
}
RP201, RP202, RP203, RP204, RP205 = CONTRACT_RULES


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one location.

    The record of every replint engine: the contract checks here, and
    the static and deep linters of :mod:`repro.lint`.

    Attributes:
        code: the stable rule code (``RPxxx``).
        message: what is wrong, concretely, at this location.
        path: the file the finding is in (``<source>`` for string input,
            ``<system>`` for contract-preflight findings).
        line: 1-based line number (0 for contract findings, which point
            at runtime objects rather than source locations).
        col: 0-based column offset.
        witness: the concrete witness edge for contract findings
            (None for static findings).
    """

    code: str
    message: str
    path: str = "<source>"
    line: int = 0
    col: int = 0
    witness: Optional[object] = field(default=None, compare=False)

    def format(self) -> str:
        """``path:line:col: CODE message`` — the CLI's output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


#: Default probe bounds: small enough to be negligible next to any real
#: exploration, large enough to cover a couple of layers at n=3.
DEFAULT_PROBE_STATES = 48
DEFAULT_DETERMINISM_SAMPLES = 8
DEFAULT_EMBEDDING_SAMPLES = 4

#: Systems (by identity) that already passed a full-default preflight in
#: this process.  Ill-formed systems are never memoized — re-probing them
#: is cheap (they fail fast) and must keep reporting.
_CLEAN: "weakref.WeakSet" = weakref.WeakSet()


@dataclass(frozen=True)
class ContractWitness:
    """The concrete edge (or state) exhibiting a contract violation."""

    state: GlobalState
    action: Optional[object] = None
    child: Optional[GlobalState] = None

    def describe(self) -> str:
        if self.action is None:
            return f"at state {self.state!r}"
        if self.child is None:
            return f"at state {self.state!r}, layer action {self.action!r}"
        return (
            f"on edge {self.state!r} --{self.action!r}--> {self.child!r}"
        )


@dataclass(frozen=True)
class PreflightReport:
    """What a bounded contract probe observed.

    Attributes:
        findings: at most one finding per rule code (the first witness
            found); empty when the probe saw no violation.
        states_probed: distinct states expanded by the probe BFS.
        edges_probed: ``(action, child)`` pairs inspected.
        complete: True when the probe exhausted the reachable space
            within its bound — the contract checks are then exhaustive
            rather than sampled.
    """

    findings: tuple[LintFinding, ...] = ()
    states_probed: int = 0
    edges_probed: int = 0
    complete: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        """One-line summary for reports and exception messages."""
        coverage = "exhaustive" if self.complete else "sampled"
        if self.ok:
            return (
                f"preflight clean ({coverage}: {self.states_probed} "
                f"states, {self.edges_probed} edges)"
            )
        codes = ", ".join(f.code for f in self.findings)
        return (
            f"ill-formed system ({codes}; {coverage}: "
            f"{self.states_probed} states, {self.edges_probed} edges): "
            + "; ".join(f.message for f in self.findings)
        )

    def raise_if_ill_formed(self) -> "PreflightReport":
        if not self.ok:
            raise IllFormedSystemError(self)
        return self


class IllFormedSystemError(Exception):
    """A contract preflight refused a system before exploration.

    Carries the :class:`PreflightReport` (``.report``) so callers can
    inspect the findings and their witness edges programmatically.
    ``report`` is None when the refusal crossed a process boundary
    (parallel exploration) and only the describing text survived.
    """

    def __init__(self, report: "PreflightReport | str") -> None:
        if isinstance(report, PreflightReport):
            super().__init__(report.describe())
            self.report: Optional[PreflightReport] = report
        else:
            super().__init__(report)
            self.report = None


def independent_view(system):
    """The system the contract checks and witness replays call.

    The uncached base of *system*: a memoizing wrapper returns the same
    list object twice by construction, which would vacuously pass the
    determinism check it exists to perform.  For a layering, a copy that
    runs each ``successors`` call with protocol tables of that call
    alone (:meth:`~repro.layerings.base.Layering.cold`), for the same
    reason: the layering's own tables would answer from the search's
    memo.
    """
    base = getattr(system, "uncached", system)
    cold = getattr(base, "cold", None)
    return base if cold is None else cold()


class ContractGuard:
    """The RP2xx checks, run on the states a search expands.

    One copy of the contract logic with two drivers: the consensus
    checker hands it every state its search expands, with the edges the
    search computed anyway, and :func:`preflight_system` drives it with a
    bounded BFS of its own.  The per-edge checks (RP202 closure, RP203,
    RP204) read the *facts* table the driver already holds; RP201's second
    ``successors`` call and RP202's per-primitive embedding run only on
    the first *determinism_samples* and *embedding_samples* states.  The
    embedding is one walk over the state's layer, in ``successors``
    order, that steps each distinct prefix once through the cold
    ``Model.apply`` and compares each endpoint with the search's child.
    Records at most one finding per rule code.
    """

    def __init__(
        self,
        system,
        facts=None,
        codes: Optional[frozenset[str]] = None,
        determinism_samples: int = DEFAULT_DETERMINISM_SAMPLES,
        embedding_samples: int = DEFAULT_EMBEDDING_SAMPLES,
    ) -> None:
        self.system = independent_view(system)
        self.facts = StateFacts(self.system) if facts is None else facts
        self.codes = codes
        self.determinism_samples = determinism_samples
        self.embedding_samples = embedding_samples
        self.findings: dict[str, LintFinding] = {}
        self.states = 0
        self.edges = 0

    def enabled(self, code: str) -> bool:
        return (self.codes is None or code in self.codes) and (
            code not in self.findings
        )

    def record(
        self, code: str, message: str, witness: Optional[ContractWitness]
    ) -> None:
        if witness is not None:
            message = f"{message} {witness.describe()}"
        self.findings[code] = LintFinding(
            code=code, message=message, path="<system>", witness=witness
        )

    def report(self, complete: bool = False) -> PreflightReport:
        return PreflightReport(
            findings=tuple(
                self.findings[code] for code in sorted(self.findings)
            ),
            states_probed=self.states,
            edges_probed=self.edges,
            complete=complete,
        )

    def check(self, state: GlobalState, succs: list) -> bool:
        """Check one expanded state and its edges *succs*; True when this
        recorded a finding."""
        found = len(self.findings)
        self.states += 1
        self.edges += len(succs)
        if self.states <= self.determinism_samples and self.enabled(RP201):
            self._check_determinism(state, succs)
        self._check_closure(state, succs)
        self._check_edges(state, succs)
        return len(self.findings) > found

    def unhashable(self, exc: TypeError) -> None:
        """Record the RP205 finding behind a ``TypeError`` from hashing.

        Unhashable state components surface at the first visited-set
        insert or dict lookup; everything downstream (interning, memo
        tables, BFS parents) would die the same way, later and worse.
        """
        if self.enabled(RP205):
            self.record(
                RP205,
                f"state is not hashable ({exc}); local and environment "
                "states must be hashable values (tuples/frozensets, not "
                "lists/dicts/sets)",
                None,
            )

    def refused(self, state: GlobalState) -> bool:
        """Record RP202 after ``successors(state)`` raised ``ValueError``.

        The batch fold checks each primitive before the guard sees the
        state, so a layer action the model refuses surfaces as that
        error.  The embedding walk over every layer action, whatever the
        sample limit, names the first action it refuses; False when it
        refuses none (the error is then not the layering's).
        """
        from repro.layerings.base import Layering, embedding_trace

        if not (isinstance(self.system, Layering) and self.enabled(RP202)):
            return False
        stepped: dict = {}
        for action in self.system.layer_actions(state):
            try:
                embedding_trace(self.system, state, action, stepped)
            except AssertionError as exc:
                self.record(
                    RP202,
                    f"layer action does not embed into the model: {exc}",
                    ContractWitness(state, action),
                )
                return True
        return False

    def _check_determinism(self, state: GlobalState, first: list) -> None:
        second = list(self.system.successors(state))
        if len(first) != len(second):
            self.record(
                RP201,
                f"successors() returned {len(first)} then "
                f"{len(second)} edges for the same state",
                ContractWitness(state),
            )
            return
        for index, (a, b) in enumerate(zip(first, second)):
            if a != b:
                self.record(
                    RP201,
                    f"successors() disagreed at index {index}: "
                    f"{a!r} vs {b!r}",
                    ContractWitness(state),
                )
                return

    def _check_closure(self, state: GlobalState, succs: list) -> None:
        if not self.enabled(RP202):
            return
        # The engines treat all-nonfailed-decided states as terminal and
        # never expand them, so an empty successor set there is
        # unobservable; everywhere else it truncates runs the paper
        # defines to be infinite.
        if not succs:
            failed, decided = self.facts[state]
            if any(
                i not in decided for i in range(state.n) if i not in failed
            ):
                self.record(
                    RP202,
                    "empty successor set: a layering maps into "
                    "2^G \\ {∅} and every run must be extensible",
                    ContractWitness(state),
                )
            return
        from repro.layerings.base import Layering, embedding_trace

        if self.states > self.embedding_samples or not isinstance(
            self.system, Layering
        ):
            return
        # successors() runs a layer compiled ahead of the state; it must
        # label its children with exactly the state's layer actions.
        labels = [action for action, _ in succs]
        actions = list(self.system.layer_actions(state))
        if labels != actions:
            missing = [a for a in actions if a not in labels]
            extra = [a for a in labels if a not in actions]
            self.record(
                RP202,
                "successors() labels disagree with layer_actions() "
                f"(missing {missing!r}, unexpected {extra!r})",
                ContractWitness(state),
            )
            return
        # One walk over the layer: a prefix two actions share is stepped
        # once.
        stepped: dict = {}
        for action, child in succs:
            try:
                endpoint = embedding_trace(
                    self.system, state, action, stepped
                )[-1]
            except AssertionError as exc:
                self.record(
                    RP202,
                    f"layer action does not embed into the model: {exc}",
                    ContractWitness(state, action, child),
                )
                return
            # successors() takes the whole layer in one batch; its
            # children must be the one-primitive-at-a-time endpoints.
            if child != endpoint:
                self.record(
                    RP202,
                    "successors() disagrees with the per-primitive fold "
                    f"(which reaches {endpoint!r})",
                    ContractWitness(state, action, child),
                )
                return

    def _check_edges(self, state: GlobalState, succs: list) -> None:
        check_failed = self.enabled(RP203)
        check_decisions = self.enabled(RP204)
        if not (check_failed or check_decisions):
            return
        failed_before, decisions_before = self.facts[state]
        for action, child in succs:
            failed_after, decisions_after = self.facts[child]
            if check_failed and not failed_before <= failed_after:
                revived = sorted(failed_before - failed_after)
                self.record(
                    RP203,
                    f"failed_at shrank (process(es) {revived} revived)",
                    ContractWitness(state, action, child),
                )
                check_failed = False
            revoked = (
                check_decisions
                and decisions_before
                and revoked_decision(decisions_before, decisions_after)
            )
            if revoked:
                self.record(
                    RP204, revoked, ContractWitness(state, action, child)
                )
                check_decisions = False


def preflight_system(
    system,
    roots: Iterable[GlobalState],
    max_states: int = DEFAULT_PROBE_STATES,
    determinism_samples: int = DEFAULT_DETERMINISM_SAMPLES,
    embedding_samples: int = DEFAULT_EMBEDDING_SAMPLES,
    codes: Optional[frozenset[str]] = None,
) -> PreflightReport:
    """Probe a successor system's contracts from the given roots.

    A bounded BFS of at most *max_states* states, each handed to a
    :class:`ContractGuard`: the determinism double-call on the first
    *determinism_samples* of them and the layering-embedding re-check on
    the first *embedding_samples*; closure, ``Faulty`` monotonicity and
    decision write-once on every probed state/edge.

    Returns a :class:`PreflightReport` with at most one finding (and one
    concrete witness) per rule code.  ``codes`` restricts which contract
    rules run (None = all); the report's ``complete`` flag records
    whether the bounded probe actually exhausted the reachable space.
    """
    guard = ContractGuard(
        system,
        codes=codes,
        determinism_samples=determinism_samples,
        embedding_samples=embedding_samples,
    )
    queue: deque[GlobalState] = deque()
    visited: set[GlobalState] = set()
    truncated = False
    try:
        for root in roots:
            if root not in visited:
                visited.add(root)
                queue.append(root)
        while queue:
            if guard.states >= max_states:
                truncated = True
                break
            state = queue.popleft()
            try:
                succs = list(guard.system.successors(state))
            except ValueError:
                if not guard.refused(state):
                    raise
                truncated = True
                break
            guard.check(state, succs)
            for _, child in succs:
                if child not in visited:
                    visited.add(child)
                    queue.append(child)
    except TypeError as exc:
        guard.unhashable(exc)
        truncated = True
    return guard.report(complete=not truncated and not queue)


def preflight_once(
    system,
    roots: Iterable[GlobalState],
    max_states: int = DEFAULT_PROBE_STATES,
) -> Optional[PreflightReport]:
    """Memoized default preflight for the engines' default-on stage.

    Returns None when the system already passed a default probe in this
    process (by object identity); otherwise runs the probe, memoizes a
    clean result, and returns the report.  Ill-formed systems are never
    memoized, so every engine invocation keeps reporting them.
    """
    base = getattr(system, "uncached", system)
    try:
        if base in _CLEAN:
            return None
    except TypeError:  # unhashable system object: just probe it
        return preflight_system(system, roots, max_states=max_states)
    report = preflight_system(system, roots, max_states=max_states)
    if report.ok:
        try:
            _CLEAN.add(base)
        except TypeError:
            pass
    return report


def _clear_memo() -> None:
    """Test hook: forget which systems passed (used by tests/lint)."""
    _CLEAN.clear()
