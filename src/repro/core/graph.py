"""The state graph: one budgeted walk and one SCC pass.

Every analysis that folds over the layered successor graph builds the
graph with :func:`walk` and reads its strongly connected components
from :func:`sccs`.  The analyses differ only in what a state
contributes and where the walk stops:

* valence (:mod:`repro.core.valence`) folds decided values over the
  condensation, stopping at terminal and already-memoized states;
* outcome analysis (:mod:`repro.tasks.covering`) folds decided
  simplexes, and runs :func:`sccs` again on each candidate nonfaulty
  set's subgraph to find its loops;
* the explorers (:mod:`repro.core.exploration`) read depths, edge
  counts and layer sizes off the walk, to a depth bound.

The walk charges the caller's budget meter (any object with
``charge_state`` / ``charge_edge`` returning the tripped limit or None,
such as :class:`~repro.resilience.budget.BudgetMeter`) and stops at the
first trip, at the charge that tripped it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.core.state import GlobalState

#: Where a walk's budget tripped: seeding the roots, charging a
#: generated edge, or charging a newly discovered state.
SEEDING, EDGE, STATE = "seeding", "edge", "state"


@dataclass
class Walk:
    """What one budgeted BFS saw.

    ``depth`` maps every discovered state to its BFS depth, including
    the state whose charge tripped the budget.  ``succ`` maps every
    expanded state to its ``(action, child)`` pairs in successor order,
    each child given as the first object met for that state, so lookups
    over the graph match children by identity instead of comparing
    equal states built by different layer folds.  ``tripped`` names the
    tripped limit and ``site`` the charge that tripped it (both None for
    a complete walk).  ``duplicate_hits`` counts the pairs whose child
    had already been discovered.
    """

    depth: dict[GlobalState, int] = field(default_factory=dict)
    succ: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = field(
        default_factory=dict
    )
    tripped: Optional[str] = None
    site: Optional[str] = None
    duplicate_hits: int = 0

    def _stop(self, tripped: str, site: str) -> "Walk":
        self.tripped, self.site = tripped, site
        return self


def walk(
    system,
    roots: Iterable[GlobalState],
    meter,
    sink: Optional[Callable[[GlobalState], bool]] = None,
    max_depth: Optional[int] = None,
) -> Walk:
    """BFS from *roots* over ``system.successors``, charging *meter*.

    Every newly discovered state is charged as a state and every
    generated ``(action, child)`` pair as an edge.  A trip is honoured
    at its charge site: the meter's periodic slow check would let one
    high-degree expansion overshoot the edge budget by a whole layer,
    and the roots alone can exhaust the state budget.

    A state is not expanded when ``sink(state)`` is true or when it
    lies at *max_depth*.  ``sink`` is called once per dequeued state
    within the depth bound, so a caller may read the state there and
    keep what it needs.
    """
    graph = Walk()
    depth, succ = graph.depth, graph.succ
    first: dict[GlobalState, GlobalState] = {}
    queue: deque[GlobalState] = deque()
    for root in roots:
        if root in first:
            continue
        first[root] = root
        depth[root] = 0
        tripped = meter.charge_state(root)
        if tripped is not None:
            return graph._stop(tripped, SEEDING)
        queue.append(root)
    while queue:
        state = queue.popleft()
        level = depth[state] + 1
        if max_depth is not None and level > max_depth:
            continue
        if sink is not None and sink(state):
            continue
        pairs = []
        for action, child in system.successors(state):
            tripped = meter.charge_edge()
            if tripped is not None:
                return graph._stop(tripped, EDGE)
            known = first.get(child)
            if known is not None:
                graph.duplicate_hits += 1
                pairs.append((action, known))
                continue
            first[child] = child
            depth[child] = level
            tripped = meter.charge_state(child)
            if tripped is not None:
                return graph._stop(tripped, STATE)
            pairs.append((action, child))
            queue.append(child)
        succ[state] = pairs
    return graph


def sccs(
    roots: Iterable[GlobalState],
    children: Mapping[GlobalState, Iterable[GlobalState]],
) -> Iterator[list[GlobalState]]:
    """Strongly connected components reachable from *roots*, in reverse
    topological order (iterative Tarjan).

    The graph is *children*: its keys are the vertices and each maps to
    its successors.  A root or successor that is not a key lies outside
    the graph and is skipped.  Each component is yielded only after
    every component reachable from it, so a fold over the condensation
    can finalize components as they arrive.
    """
    index: dict[GlobalState, int] = {}
    lowlink: dict[GlobalState, int] = {}
    on_stack: set[GlobalState] = set()
    stack: list[GlobalState] = []
    for root in roots:
        if root in index or root not in children:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(children[root]))]
        while work:
            state, successors = work[-1]
            for child in successors:
                if child not in children:
                    continue
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(children[child])))
                    break
                if child in on_stack and index[child] < lowlink[state]:
                    lowlink[state] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[state] < lowlink[parent]:
                        lowlink[parent] = lowlink[state]
                if lowlink[state] == index[state]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is state:
                            break
                    yield component
