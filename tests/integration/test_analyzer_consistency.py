"""Cross-analyzer consistency: valence vs. outcome analysis.

The ValenceAnalyzer (Section 3 valence over decision *values*) and the
OutcomeAnalyzer (Section 7 generalized valence over decision *simplexes*)
fold different contributions over the same state graph: both build it
with ``repro.core.graph.walk`` and read its components from
``repro.core.graph.sccs``, so this file checks the two folds against
each other, not the shared walk (``tests/property/reference.py`` is the
independent check of valence and of the SCC pass).  For consensus-style
protocols their results must cohere:

* every value the valence analyzer reaches appears in some outcome
  simplex, and vice versa;
* divergence verdicts agree;
* a state bivalent in values is bivalent for the value-split covering.
"""

import pytest

from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.tasks.complex import Complex
from repro.tasks.covering import Covering, OutcomeAnalyzer
from repro.tasks.simplex import Simplex


def systems():
    return {
        "s1-mobile": S1MobileLayering(MobileModel(QuorumDecide(2), 3)),
        "synchronic-rw": SynchronicRWLayering(
            SharedMemoryModel(QuorumDecide(2), 3)
        ),
        "permutation": PermutationLayering(
            AsyncMessagePassingModel(QuorumDecide(2), 3)
        ),
    }


@pytest.mark.parametrize("name", sorted(systems()))
def test_values_match_outcome_values(name):
    layering = systems()[name]
    valence = ValenceAnalyzer(layering, 600_000)
    outcome = OutcomeAnalyzer(layering, 600_000)
    for inputs in [(0, 1, 1), (0, 0, 0), (1, 0, 1)]:
        state = layering.model.initial_state(inputs)
        v = valence.valence(state)
        o = outcome.outcome(state)
        outcome_values = set()
        for simplex in o.outcomes:
            outcome_values |= simplex.values()
        assert set(v.values) == outcome_values, (name, inputs)
        # The outcome analyzer's divergence is the precise decision-
        # violation verdict; the valence analyzer's is its over-
        # approximation (it cannot see scheduling-crashes in the
        # no-finite-failure models) — see ValenceResult's docstring.
        if o.diverges:
            assert v.diverges, (name, inputs)


@pytest.mark.parametrize("name", sorted(systems()))
def test_value_bivalence_matches_value_split_covering(name):
    layering = systems()[name]
    valence = ValenceAnalyzer(layering, 600_000)
    outcome = OutcomeAnalyzer(layering, 600_000)
    state = layering.model.initial_state((0, 1, 1))
    o = outcome.outcome(state)
    side0 = [d for d in o.outcomes if 0 in d.values()]
    side1 = [d for d in o.outcomes if 1 in d.values()]
    if not (side0 and side1):
        pytest.skip("state not bivalent in this system")
    covering = Covering(Complex(side0), Complex(side1))
    assert valence.valence(state).bivalent
    assert o.bivalent_for(covering)


def test_waitforall_divergence_agrees():
    layering = PermutationLayering(
        AsyncMessagePassingModel(WaitForAll(), 3)
    )
    valence = ValenceAnalyzer(layering, 600_000)
    outcome = OutcomeAnalyzer(layering, 600_000)
    state = layering.model.initial_state((0, 1, 1))
    assert valence.valence(state).diverges
    assert outcome.outcome(state).diverges


def test_settled_starvation_outcomes_are_not_divergence():
    """A 1-resilient solver starved of one process yields a settled
    2-simplex outcome in the OutcomeAnalyzer and no divergence — while
    the ValenceAnalyzer's terminal notion (all non-failed decided) never
    fires on those loops; the two analyzers must still agree that the
    decision requirement holds."""
    from repro.protocols.tasks import EpsilonAgreementProtocol

    layering = PermutationLayering(
        AsyncMessagePassingModel(EpsilonAgreementProtocol(), 3)
    )
    outcome = OutcomeAnalyzer(layering, 800_000)
    state = layering.model.initial_state((0, 1, 1))
    o = outcome.outcome(state)
    assert not o.diverges
    assert any(len(s) == 2 for s in o.outcomes)
