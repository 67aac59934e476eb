"""An interrupted consensus search resumes to the uninterrupted report.

A ``KeyboardInterrupt`` may land anywhere in the search: between filing
a child in the parent map and queueing it, or between filing it and
testing its safety.  Whatever the point, the checkpoint must hold every
filed state as queued, expanded or terminal, so the resumed search
reaches the report the uninterrupted one gives: verdict, state count,
execution and cycle.  Each test interrupts at every call of one
function, one run per call.

The searches run on a warm successor cache shared by every run and with
the contract checks off, so that a run per interrupt point stays cheap;
the cache is transparent and the interrupt handling is the same with
the checks on.
"""

from __future__ import annotations

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.analysis.sync_lower_bound import make_st_system
from repro.core.cache import CachedSystem
from repro.core.checker import ConsensusChecker, Verdict, replay_witness
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.eig import EIG
from repro.resilience.budget import BudgetMeter
from tests.interrupts import trap


def _eig_in_st():
    """EIG(3) in S^t, n=4, t=2: SATISFIED on 508 states."""
    return make_st_system(EIG(3), 4, 2), (0, 1, 1, 0)


def _waitforall_in_sper():
    """WaitForAll in S^per, n=3: a DECISION lasso on 538 states."""
    return standard_layerings(WaitForAll(), 3)["permutation-mp"], (0, 0, 0)


SEARCHES = {"eig-st": _eig_in_st, "waitforall-sper": _waitforall_in_sper}
POINTS = {
    "state_problem": (ConsensusChecker, "_state_problem"),
    "charge_state": (BudgetMeter, "charge_state"),
}


def _same_report(resumed, whole):
    assert resumed.verdict is whole.verdict
    assert resumed.states_explored == whole.states_explored
    assert resumed.execution == whole.execution
    assert resumed.cycle == whole.cycle


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_an_interrupt_at_every_call_resumes_to_the_whole_report(
    search, point
):
    system, inputs = SEARCHES[search]()
    cached = CachedSystem(system)

    def check(checkpoint=None):
        checker = ConsensusChecker(system, cache=cached, preflight=False)
        root = system.model.initial_state(inputs)
        return checker.check(root, inputs, checkpoint=checkpoint)

    owner, name = POINTS[point]
    with trap(owner, name) as calls:
        whole = check()
    assert whole.verdict in (Verdict.SATISFIED, Verdict.DECISION)
    assert calls.count >= whole.states_explored
    for k in range(1, calls.count + 1):
        with trap(owner, name, at=k):
            cut = check()
        assert cut.interrupted, k
        assert cut.checkpoint is not None
        resumed = check(cut.checkpoint)
        _same_report(resumed, whole)


def test_an_interrupt_in_the_lasso_pass_resumes_to_the_decision():
    """The lasso pass runs after the BFS; an interrupt there checkpoints
    the complete search, and the resumed run redoes only the pass."""
    system, inputs = _waitforall_in_sper()
    root = system.model.initial_state(inputs)

    def check(checkpoint=None, **options):
        checker = ConsensusChecker(system, **options)
        return checker.check(root, inputs, checkpoint=checkpoint)

    # With the contract checks off, the lasso pass is the only caller.
    owner = type(system)
    with trap(owner, "nonfaulty_under") as calls:
        check(preflight=False)
    assert calls.count > 0
    whole = check()
    assert whole.verdict is Verdict.DECISION
    # Interrupt at the first and at the last call of the pass.
    for k in sorted({1, calls.count}):
        with trap(owner, "nonfaulty_under", at=k):
            cut = check()
        assert cut.verdict is Verdict.UNKNOWN
        assert cut.interrupted
        assert cut.checkpoint is not None
        assert cut.checkpoint.queue == []
        resumed = check(cut.checkpoint)
        _same_report(resumed, whole)
        assert resumed.inputs == whole.inputs


@pytest.mark.parametrize("point", ["nonfaulty_under", "successors"])
def test_an_interrupt_in_the_witness_replay_resumes_to_the_refutation(point):
    """The replay runs after the search, on the guard's independent view.
    An interrupt there checkpoints an empty search, which resumes from
    the root to the same refutation."""
    system, inputs = _waitforall_in_sper()
    root = system.model.initial_state(inputs)

    def check(checkpoint=None):
        return ConsensusChecker(system).check(root, inputs, checkpoint)

    owner = type(system)
    with trap(owner, point) as calls:
        whole = check()
    assert whole.verdict is Verdict.DECISION
    with trap(owner, point) as replayed:
        assert replay_witness(system, whole)
    assert replayed.count > 0
    # The replay makes the check's last calls.
    for k in range(calls.count - replayed.count + 1, calls.count + 1):
        with trap(owner, point, at=k):
            cut = check()
        assert cut.verdict is Verdict.UNKNOWN, k
        assert cut.interrupted
        assert cut.checkpoint is not None
        _same_report(check(cut.checkpoint), whole)


def test_an_interrupt_in_the_sampled_embedding_walk_resumes():
    """With the contract checks on, the sampled RP202 walk steps the
    cold model one primitive at a time; an interrupt at any of those
    steps resumes to the whole report."""
    system = standard_layerings(QuorumDecide(2), 3)["permutation-mp"]
    inputs = (0, 1, 1)
    root = system.model.initial_state(inputs)

    def check(checkpoint=None):
        return ConsensusChecker(system).check(root, inputs, checkpoint)

    owner = type(system.model)
    with trap(owner, "apply") as calls:
        whole = check()
    assert whole.verdict is Verdict.AGREEMENT
    assert calls.count > 0
    for k in range(1, calls.count + 1):
        with trap(owner, "apply", at=k):
            cut = check()
        assert cut.interrupted, k
        assert cut.checkpoint is not None
        _same_report(check(cut.checkpoint), whole)
