"""The iterated-immediate-snapshot layering (announced full-paper extension).

An *immediate snapshot* schedule is an ordered partition of the processes
into blocks: within a block everybody updates, then everybody scans — so
block members see each other's updates (unlike the permutation layering's
concurrent pair, whose receives exclude each other: the snapshot object's
atomic scan happens after all the block's writes, which is the defining
immediacy).  Iterating one such schedule per layer gives the IIS model of
[Borowsky–Gafni]; this layering is its 1-resilient cousin in the style of
the paper's Section 5 layerings:

* **full** actions — every ordered partition of all ``n`` processes
  (13 of them for n=3);
* **short** actions — every ordered partition of all-but-one process,
  starving the remaining one this layer.

Connectivity structure, replayed constructively:

* :func:`split_merge_edges` — the front-singleton merge
  ``[..., {q}, B, ...] ~s [..., {q} ∪ B, ...]``: in both schedules every
  member of ``B`` scans after ``q``'s update, and ``q``'s update carries
  its phase-start value either way; only ``q``'s *scan* differs (it
  misses ``B``'s updates in the split form and sees them in the merged
  form) — so the two successor states agree modulo ``q``.  Front-
  singleton splits reach the all-singleton refinements from any
  partition, and singleton orders are linked through two-element blocks
  exactly like the permutation layering's transpositions, so these edges
  connect the whole layer: the classical subdivision connectivity,
  executable.
* :func:`solo_diamond` — the short-vs-full link: scheduling ``j`` as a
  singleton last block and then a layer ``P`` equals scheduling ``P``
  short and then ``j`` first — literally the same primitive sequence, so
  the states are equal and the valence is shared (the permutation
  layering's diamond, verbatim).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.state import GlobalState
from repro.layerings.base import ANY_STATE, Layering
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    update_action,
)
from repro.util.orderings import ordered_partitions


def blocks_schedule(blocks: Sequence[frozenset]) -> tuple:
    """A full IIS layer action: an ordered partition of all processes."""
    return ("blocks", tuple(frozenset(b) for b in blocks))


def short_blocks_schedule(blocks: Sequence[frozenset]) -> tuple:
    """A short IIS layer action: an ordered partition of all-but-one."""
    return ("short-blocks", tuple(frozenset(b) for b in blocks))


class IteratedSnapshotLayering(Layering):
    """The IIS-style layering over :class:`SnapshotMemoryModel`."""

    def __init__(self, model: SnapshotMemoryModel) -> None:
        if not isinstance(model, SnapshotMemoryModel):
            raise TypeError(
                "the IIS layering is defined over the snapshot-memory model"
            )
        super().__init__(model)
        # The layer reads no part of the state: compile it once.
        self._compile_layers([ANY_STATE])

    def layer_actions(self, state: GlobalState) -> list[tuple]:
        n = self.n
        actions = [
            blocks_schedule(p) for p in ordered_partitions(range(n))
        ]
        for skipped in range(n):
            rest = [i for i in range(n) if i != skipped]
            actions.extend(
                short_blocks_schedule(p) for p in ordered_partitions(rest)
            )
        return actions

    def expand(self, state: GlobalState, action: tuple) -> Sequence[tuple]:
        kind, blocks = action
        if kind not in ("blocks", "short-blocks"):
            raise ValueError(f"not an IIS action: {action!r}")
        steps: list[tuple] = []
        for block in blocks:
            members = sorted(block)
            steps.extend(update_action(i) for i in members)
            steps.extend(scan_action(i) for i in members)
        return tuple(steps)

    def nonfaulty_under(self, action: tuple) -> frozenset[int]:
        kind, blocks = action
        scheduled = frozenset().union(*blocks) if blocks else frozenset()
        if kind == "short-blocks":
            return scheduled
        return frozenset(range(self.n))


def split_merge_edges(n: int) -> list[tuple[tuple, tuple]]:
    """Similarity edges linking every pair of full IIS schedules.

    One edge per front-singleton merge
    ``[..., {q}, B, ...] -> [..., {q} ∪ B, ...]`` (see module docstring:
    the successor states agree modulo ``q``).  These edges connect the
    full layer: front-singleton splits reduce any partition to
    all-singleton refinements, and two-element blocks bridge adjacent
    transpositions of singleton orders.

    Returns claimed-similar action pairs; tests verify each pair's
    successors agree modulo the singleton process and check the edge set
    spans the layer.
    """
    edges: list[tuple[tuple, tuple]] = []
    for partition in ordered_partitions(range(n)):
        for idx in range(len(partition) - 1):
            first = partition[idx]
            if len(first) != 1:
                continue
            merged = (
                partition[:idx]
                + (first | partition[idx + 1],)
                + partition[idx + 2 :]
            )
            edges.append(
                (blocks_schedule(partition), blocks_schedule(merged))
            )
    return edges


def solo_diamond(j: int, n: int) -> tuple[list[tuple], list[tuple]]:
    """The short-vs-full diamond (equal endpoints)::

        x[P, {j}][P] == x[P][{j}, P]

    where ``P`` is the singleton-blocks schedule of everyone else.  Both
    sides are the same primitive sequence, so the global states are
    equal — giving the short schedule a shared valence with the full one.
    """
    others = [frozenset({i}) for i in range(n) if i != j]
    left = [
        blocks_schedule(others + [frozenset({j})]),
        short_blocks_schedule(others),
    ]
    right = [
        short_blocks_schedule(others),
        blocks_schedule([frozenset({j})] + others),
    ]
    return left, right
