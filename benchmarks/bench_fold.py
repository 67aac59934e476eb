"""The layer fold and the primitive ``Model.apply``, timed per model.

The three asynchronous models (async message passing, ``M^rw`` and
snapshot memory) fold their layers with ``prefix_fold`` on scratch ids
filed in the layering's protocol tables.  This script times the two
layers of that path the north star names, for each model, on its
standard layering over QuorumDecide(2) at n=3 (``S^per``, ``S^rw``,
IIS):

* ``successors``: ``Layering.successors`` per state over every state a
  BFS from ``Con_0`` reaches, in BFS order.  *fresh* is one pass on a
  newly built layering (its tables start empty and fill as the pass
  goes, as in one valence or checker op); *warm* is a second pass with
  the same layering, so every protocol call and endpoint is a table hit;
* ``apply``: one cold ``Model.apply`` per primitive kind, over the
  primitives the layers of the first ``APPLY_STATES`` of those states
  step through.
  ``apply`` runs with tables of its own call, as RP202's embedding walk,
  the second ``successors`` call on ``Layering.cold()`` and the witness
  replay do;

and, end to end, the registry refute loop at n=2:
``refute_candidate`` for every registry protocol at n=2 with the
defaults, the work of a new serve-n2 job.

Each figure is the median [q1, q3] of ``--repeat`` runs (default 7) in
one interpreter, in µs per state, per call or per loop.  The table
lands in ``benchmarks/results/bench_fold.txt`` and on stdout.  To compare
two trees, run it alternately under each tree's ``src``:

    PYTHONPATH=src python -m benchmarks.bench_fold [--repeat R]

It only reads public entry points, so it runs on older trees too.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from collections import deque

from benchmarks.helpers import save_table
from repro.analysis.impossibility import refute_candidate, standard_layerings
from repro.analysis.reports import render_table
from repro.protocols.candidates import QuorumDecide
from repro.protocols.registry import PROTOCOLS

N = 3
#: model name -> the standard layering (at n=3) it is timed under.
LAYERINGS = {
    "async-mp": "permutation-mp",
    "rw": "synchronic-rw",
    "snapshot": "iis-snapshot",
}
#: How many of the recorded states the cold ``apply`` figures draw
#: from, and how many cases of each primitive kind they time at most.
APPLY_STATES = 100
APPLY_CASES = 600


def _layering(name):
    return standard_layerings(QuorumDecide(2), N)[name]


def recorded_states(name) -> list:
    """Every state a BFS of the layering from ``Con_0`` reaches."""
    layering = _layering(name)
    roots = layering.model.initial_states()
    seen, queue, order = set(roots), deque(roots), []
    while queue:
        state = queue.popleft()
        order.append(state)
        for _, child in layering.successors(state):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return order


def _timed(thunk) -> float:
    gc.collect()
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def time_successors(name, states) -> tuple[float, float]:
    """Seconds for a fresh and for a warm ``successors`` pass."""
    layering = _layering(name)

    def walk():
        for state in states:
            layering.successors(state)

    return _timed(walk), _timed(walk)


def apply_cases(name, states) -> dict[str, list]:
    """Primitive kind -> each distinct ``(state, primitive)`` the layers
    of the first :data:`APPLY_STATES` states step through, at most
    :data:`APPLY_CASES` of a kind."""
    layering = _layering(name)
    model = layering.model
    seen, cases = set(), {}
    for state in states[:APPLY_STATES]:
        for action in layering.layer_actions(state):
            at = state
            for primitive in layering.expand(state, action):
                case = (at, primitive)
                kind = cases.setdefault(primitive[0], [])
                if case not in seen and len(kind) < APPLY_CASES:
                    seen.add(case)
                    kind.append(case)
                at = model.apply(at, primitive)
    return cases


def time_apply(model, cases) -> float:
    """Seconds for one cold ``apply`` of each case."""
    apply = model.apply

    def run():
        for state, action in cases:
            apply(state, action)

    return _timed(run)


def refute_loop() -> None:
    for name in sorted(PROTOCOLS):
        refute_candidate(PROTOCOLS[name](2), 2)


def _summary(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"{samples[0]:.2f}"
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"{statistics.median(samples):.2f} [{q1:.2f}, {q3:.2f}]"


def measure(repeat: int) -> list[tuple[str, str, str, int, str]]:
    """The table's rows: figure, model, kind, count, median [q1, q3]."""
    rows = []
    for model_name, name in LAYERINGS.items():
        states = recorded_states(name)
        fresh, warm = [], []
        for _ in range(repeat):
            first, second = time_successors(name, states)
            fresh.append(first / len(states) * 1e6)
            warm.append(second / len(states) * 1e6)
        rows.append(("successors", model_name, "fresh", len(states),
                     _summary(fresh) + " µs/state"))
        rows.append(("successors", model_name, "warm", len(states),
                     _summary(warm) + " µs/state"))
        model = _layering(name).model
        for kind, cases in sorted(apply_cases(name, states).items()):
            samples = [
                time_apply(model, cases) / len(cases) * 1e6
                for _ in range(repeat)
            ]
            rows.append(("apply", model_name, kind, len(cases),
                         _summary(samples) + " µs/call"))
    refute_loop()  # imports and first-use costs stay out of the figure
    samples = [_timed(refute_loop) * 1e3 for _ in range(repeat)]
    rows.append(("refute n=2", "registry", "loop", len(PROTOCOLS),
                 _summary(samples) + " ms/loop"))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="runs per figure (default 7)")
    args = parser.parse_args(argv)
    table = render_table(
        ("figure", "model", "kind", "count", "median [q1, q3]"),
        measure(max(1, args.repeat)),
    )
    save_table(
        "bench_fold",
        "The layer fold and the cold primitive apply, per model "
        f"(QuorumDecide(2), n={N}; repeat {args.repeat})",
        table,
    )
    print(table)


if __name__ == "__main__":
    main()
