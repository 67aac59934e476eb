"""One exact-valence op over ``S^per`` does each kind of fold work once
per input that determines it.

The op: exact valence of every ``Con_0`` root of the permutation layering
over asynchronous message passing, QuorumDecide(2) at n=3, on a freshly
built layering.  It expands 2,990 states, and their layers end in 2,982
distinct endpoints.  The fold's scratch is small ints in the layering's
protocol tables, so:

* a canonical environment (the sorted message bag) is built once per
  distinct endpoint, when the endpoint is first met, and never for an
  endpoint the tables already hold;
* ``outgoing`` runs once per local state a process stages from (60),
  and ``transition`` once per local state and delivery (1,518).
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide

STATES = 2990
ENDPOINTS = 2982


class _Counting(QuorumDecide):
    def __init__(self, counts):
        super().__init__(2)
        self.counts = counts

    def outgoing(self, i, n, local):
        self.counts["outgoing"] += 1
        return super().outgoing(i, n, local)

    def transition(self, i, n, local, received):
        self.counts["transition"] += 1
        return super().transition(i, n, local, received)


class _CountingModel(AsyncMessagePassingModel):
    def _seal(self, entries, chans):
        self.protocol.counts["sealed"] += 1
        return super()._seal(entries, chans)


@pytest.fixture(scope="module")
def op():
    """The op's analyzer, the distinct endpoints its layers reached, and
    its call counts."""
    counts = Counter()
    layering = PermutationLayering(_CountingModel(_Counting(counts), 3))
    endpoints = set()
    successors = layering.successors

    def recorded(state):
        succs = successors(state)
        endpoints.update(child for _, child in succs)
        return succs

    layering.successors = recorded
    analyzer = ValenceAnalyzer(layering)
    for inputs in product((0, 1), repeat=3):
        analyzer.valence(layering.model.initial_state(inputs))
    return analyzer, endpoints, counts


def test_the_op_explores_its_states(op):
    analyzer, endpoints, _ = op
    assert analyzer.explored_states == STATES
    assert len(endpoints) == ENDPOINTS


def test_an_environment_is_built_once_per_distinct_endpoint(op):
    _, endpoints, counts = op
    assert counts["sealed"] == len(endpoints)


def test_each_protocol_call_runs_once_per_distinct_input(op):
    _, _, counts = op
    assert counts["outgoing"] == 60
    assert counts["transition"] == 1518
