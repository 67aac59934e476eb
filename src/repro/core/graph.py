"""The state graph: one budgeted breadth-first search and one SCC pass.

Every analysis that reads the layered successor graph builds it with
:func:`walk`, and the ones that fold over it read its strongly
connected components from :func:`sccs`.  The analyses differ only in
what a state contributes and where the walk stops:

* the consensus search (:mod:`repro.core.checker`) files every state
  with its BFS parent, tests the safety predicate on each newly filed
  state and hands each expansion to the contract guard, stops at the
  first violation, and resumes from a checkpoint of the walk;
* the contract probe (:func:`repro.core.contracts.preflight_system`)
  hands each expansion to the guard, for a bounded number of states;
* valence (:mod:`repro.core.valence`) folds decided values over the
  condensation, stopping at terminal and already-memoized states;
* outcome analysis (:mod:`repro.tasks.covering`) folds decided
  simplexes, and runs :func:`sccs` again on each candidate nonfaulty
  set's subgraph to find its loops;
* the explorers (:mod:`repro.core.exploration`) read depths, edge
  counts and layer sizes off the walk, to a depth bound.

The walk charges the caller's budget meter (any object with
``charge_state``, ``charge_edge`` and ``poll``, such as
:class:`~repro.resilience.budget.BudgetMeter`).  It has one stop rule:
seeding stops at the root whose charge trips (the roots alone can
exhaust the state budget), and otherwise the meter is read before each
dequeue and once the queue is empty, so an expansion always runs to its
end.  A trip therefore overshoots the budget by at most one expansion,
and a resumed walk always gets past the state it stopped before, however
small its budget window.  It has one interrupt rule: an exception raised
while a state is expanded (``KeyboardInterrupt`` above all) unfiles the
children that expansion filed and puts the state back at the head of
the queue before it propagates (one raised while seeding unfiles the
roots), so the :class:`Walk` the caller passed in is a consistent
checkpoint.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.state import GlobalState


@dataclass
class Walk:
    """What one budgeted BFS saw, and where it resumes.

    ``parent`` maps every filed state to ``(predecessor, action)``, or
    to None for a root; its keys, in filing order, are the walk's
    visited set.  ``depth`` maps the same states to their BFS depths.
    ``queue`` is the frontier still to expand, ``terminal`` the dequeued
    states the sink stopped at, and ``succ`` maps every expanded state
    to its ``(action, child)`` list as ``successors`` returned it.
    ``tripped`` names the tripped limit, and ``found`` what stopped the
    walk early: True when the guard did, else the value a hook returned
    (both None for a complete walk).  ``duplicate_hits`` counts the
    pairs whose child had already been filed.

    Pass a tripped walk back to :func:`walk` to resume it.  A walk may
    also be rebuilt from its parent pointers, queue, terminal states and
    successor lists alone (a checkpoint keeps no depths): the depths
    are then recovered in filing order.
    """

    parent: dict[GlobalState, Optional[tuple[GlobalState, Hashable]]] = (
        field(default_factory=dict)
    )
    depth: dict[GlobalState, int] = field(default_factory=dict)
    queue: deque[GlobalState] = field(default_factory=deque)
    terminal: set[GlobalState] = field(default_factory=set)
    succ: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = field(
        default_factory=dict
    )
    tripped: Optional[str] = None
    found: Any = None
    duplicate_hits: int = 0

    def _unfile(self, mark: int) -> None:
        """Unfile (and unqueue) every state filed after the first *mark*:
        both maps and the queue's tail hold them in filing order."""
        parent, queue = self.parent, self.queue
        while len(parent) > mark:
            state, _ = parent.popitem()
            self.depth.pop(state, None)
            if queue and queue[-1] is state:
                queue.pop()


def walk(
    system,
    roots: Iterable[GlobalState],
    meter,
    sink: Optional[Callable[[GlobalState], bool]] = None,
    max_depth: Optional[int] = None,
    graph: Optional[Walk] = None,
    guard=None,
    filed: Optional[Callable[[GlobalState], Any]] = None,
    edge: Optional[Callable[[GlobalState, Hashable, GlobalState], Any]] = None,
) -> Walk:
    """BFS from *roots* over ``system.successors``, charging *meter*;
    extends *graph* (a new :class:`Walk` by default) and returns it.

    Every newly filed state is charged as a state and every generated
    ``(action, child)`` pair as an edge; roots already filed in *graph*
    are skipped, so passing a tripped walk back resumes it.  A dequeued
    state is not expanded when it lies at *max_depth*, or when
    ``sink(state)`` is true (it is then added to ``terminal``); ``sink``
    is called once per dequeued state within the depth bound, so a
    caller may read the state there and keep what it needs.

    The hooks stop the walk early:

    * *guard* (a :class:`~repro.core.contracts.ContractGuard`) sees each
      expansion's whole successor list before any child is filed; when
      its ``check`` returns True, or ``successors`` raised a
      ``ValueError`` that its ``refused`` explains, the walk stops with
      ``found`` True.
    * *filed* is called on each newly filed state, roots included, and
      *edge* on each generated pair (after its child is filed); the
      first non-None value either returns is kept as ``found`` and stops
      the walk on the spot, so ``len(parent)`` still counts only the
      states filed up to that moment.
    """
    graph = Walk() if graph is None else graph
    graph.tripped = graph.found = None
    parent, depth, queue, succ = graph.parent, graph.depth, graph.queue, graph.succ
    if len(depth) < len(parent):
        # Rebuilt from parent pointers alone: each state was filed after
        # its parent.
        for state, link in parent.items():
            depth[state] = 0 if link is None else depth[link[0]] + 1
    mark = len(parent)
    try:
        for root in roots:
            if root in parent:
                continue
            parent[root] = None
            depth[root] = 0
            tripped = meter.charge_state(root)
            if filed is not None:
                graph.found = filed(root)
                if graph.found is not None:
                    return graph
            queue.append(root)
            if tripped is not None:
                break
    except BaseException:
        graph._unfile(mark)
        raise
    while True:
        graph.tripped = meter.poll()
        if graph.tripped is not None or not queue:
            return graph
        state = queue.popleft()
        level = depth[state] + 1
        if max_depth is not None and level > max_depth:
            continue
        mark = len(parent)
        try:
            if sink is not None and sink(state):
                graph.terminal.add(state)
                continue
            try:
                succs = system.successors(state)
            except ValueError:
                # The batch fold refused a layer action: the guard's
                # embedding walk names it, or the error is not the
                # layering's.
                if guard is None or not guard.refused(state):
                    raise
                graph.found = True
                return graph
            if guard is not None and guard.check(state, succs):
                graph.found = True
                return graph
            for action, child in succs:
                meter.charge_edge()
                fresh = child not in parent
                if fresh:
                    parent[child] = (state, action)
                    depth[child] = level
                    meter.charge_state(child)
                else:
                    graph.duplicate_hits += 1
                if edge is not None:
                    graph.found = edge(state, action, child)
                    if graph.found is not None:
                        return graph
                if fresh:
                    if filed is not None:
                        graph.found = filed(child)
                        if graph.found is not None:
                            return graph
                    queue.append(child)
            succ[state] = succs
        except BaseException:
            graph._unfile(mark)
            queue.appendleft(state)
            raise


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
