"""A naive reference for valence, divergence and strongly connected
components, written from the definitions and sharing no code with the
engine.

It reads a system only through ``successors``, ``failed_at`` and
``decisions``, and works on the whole reachable set at once: no budget,
no memo, no condensation.  It is fine for graphs of a dozen states.
"""


def reachable(children, root):
    """Every vertex reachable from *root* by zero or more steps."""
    seen, stack = {root}, [root]
    while stack:
        for child in children(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def valence(system, root):
    """``(values, diverges)`` of *root*, from Section 3's definitions.

    Terminal states (every non-failed process decided) are not expanded.
    ``values`` is the least fixpoint of ``own(x) ∪ ⋃ values(child)`` over
    the reachable set; *root* diverges when a non-terminal state on a
    cycle of non-terminal states is reachable from it.
    """
    own, succ = {}, {}

    def children(state):
        if state not in succ:
            failed = system.failed_at(state)
            decided = system.decisions(state)
            own[state] = {v for i, v in decided.items() if i not in failed}
            terminal = all(
                i in decided for i in range(state.n) if i not in failed
            )
            succ[state] = (
                [] if terminal else [c for _, c in system.successors(state)]
            )
        return succ[state]

    states = reachable(children, root)
    values = {state: set(own[state]) for state in states}
    changed = True
    while changed:
        changed = False
        for state in states:
            for child in succ[state]:
                if not values[child] <= values[state]:
                    values[state] |= values[child]
                    changed = True
    # Terminal states have no successors here, so a state that reaches
    # itself in one or more steps lies on a cycle of non-terminal states.
    diverges = any(
        any(state in reachable(children, c) for c in succ[state])
        for state in states
    )
    return values[root], diverges


def mutual_reachability_classes(graph, roots):
    """The classes of mutual reachability among the vertices of *graph*
    (a mapping vertex -> successors; successors that are not keys are
    outside it) reachable from *roots*."""

    def children(v):
        return [c for c in graph[v] if c in graph]

    reach = {}
    for root in roots:
        if root in graph:
            for v in reachable(children, root):
                reach.setdefault(v, reachable(children, v))
    return {
        frozenset(w for w in reach if v in reach[w] and w in reach[v])
        for v in reach
    }
