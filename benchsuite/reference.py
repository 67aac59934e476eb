"""Host speed: fixed reference work timed next to the measured work.

The benchmark runs on a few cores of a shared host, whose speed moves
by up to 1.7x, in stretches from a fraction of a second to a minute,
with load that is not the benchmark's.  No statistic of raw times
inside one run removes a stretch that covers most of it.  So a run
times reference work next to each piece of its own work and reports
the piece at *reference speed*: its raw time times a fixed reference
time over the mean of the two reference samples around it.  The
references are benchmark code and the standard library, and no change
to the program moves them.  There are two:

- for work inside a running interpreter (an op, a slice of the serve
  loop, a campaign), a pure-Python search, timed before the first piece
  and after every piece (:class:`HostSpeed`).  A sample runs it on as
  many cores at once as the workload keeps busy (``width``): the
  benchmark process on one, and one helper process, started from this
  file, on each further core;
- for a cold start, the start of a fresh interpreter that imports a
  fixed set of standard-library modules, timed right before and right
  after it (:func:`cold_start_at_reference`).  Process start-up moves
  with the host differently from work in a warm process, and the
  search does not follow it.

    python3 benchsuite/reference.py     # a helper: one sample per input line
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

#: Elements permuted by the reference's breadth-first search (7! states).
SIZE = 7
#: Searches per sample: about a tenth of a one-second op.
CALLS = 8
#: A sample's time on one uncontended core of the 2-core Xeon VM the
#: recorded numbers come from.  It only sets the scale: there, a piece
#: of work at reference speed reads about its raw time.
REFERENCE_SECONDS = 0.1

#: What the reference interpreter start imports: the kind of work a
#: cold start of the program does (finding, reading and running
#: modules), none of it the program's.
START_IMPORTS = (
    "argparse, asyncio, collections, dataclasses, decimal, email.message, "
    "enum, fractions, functools, hashlib, http.client, itertools, json, "
    "logging, pathlib, pickle, random, socket, statistics, subprocess, "
    "tempfile, threading, typing, unittest, xml.dom.minidom"
)
#: A reference start's time on the same VM when uncontended; it sets
#: the scale of cold starts as ``REFERENCE_SECONDS`` sets that of ops.
START_REFERENCE_SECONDS = 0.1


def search(size: int = SIZE) -> int:
    """Breadth-first search over the permutations of ``range(size)``
    under adjacent transpositions: tuples, slicing, hashing and a
    visited map, the operations the program's state-space search is
    made of."""
    start = tuple(range(size))
    parent = {start: None}
    frontier = [start]
    while frontier:
        successors = []
        for state in frontier:
            for i in range(size - 1):
                child = state[:i] + (state[i + 1], state[i]) + state[i + 2:]
                if child not in parent:
                    parent[child] = state
                    successors.append(child)
        frontier = successors
    return len(parent)


def sample_seconds() -> float:
    """Seconds for ``CALLS`` searches in this process."""
    start = time.perf_counter()
    for _ in range(CALLS):
        search()
    return time.perf_counter() - start


def start_seconds() -> float:
    """Seconds to start a fresh interpreter that imports
    ``START_IMPORTS`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {START_IMPORTS}"], check=True)
    return time.perf_counter() - start


def cold_start_at_reference(cold_start: Callable[[], float]) -> tuple[float, float]:
    """Run *cold_start*, which returns its own seconds, between two
    reference starts.  Returns its seconds raw and at reference speed."""
    before = start_seconds()
    seconds = cold_start()
    after = start_seconds()
    return seconds, seconds * START_REFERENCE_SECONDS / statistics.fmean((before, after))


class HostSpeed:
    """Reference samples between pieces of timed work.

    Call :meth:`mark` right after each piece: it takes the next sample
    and returns the piece's *factor*, ``REFERENCE_SECONDS`` over the
    mean of the samples before and after it.  A raw time times its
    factor is that time at reference speed.
    """

    def __init__(self, width: int = 1) -> None:
        self.helpers: list[subprocess.Popen] = []
        try:
            for _ in range(width - 1):
                self.helpers.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve())],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
            # The first sample warms the helpers up and is not kept.
            self._sample()
            self.samples = [self._sample()]
        except BaseException:
            self.close()
            raise
        self.factors: list[float] = []

    def _sample(self) -> float:
        start = time.perf_counter()
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        sample_seconds()
        for helper in self.helpers:
            if not helper.stdout.readline():
                raise RuntimeError("host speed helper exited")
        return time.perf_counter() - start

    def mark(self) -> float:
        """Close the piece of work since the previous mark; its factor."""
        self.samples.append(self._sample())
        factor = REFERENCE_SECONDS / statistics.fmean(self.samples[-2:])
        self.factors.append(factor)
        return factor

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self.helpers = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def helper_main() -> None:
    """One sample per line read; exits at end of input."""
    for _ in sys.stdin:
        print(f"{sample_seconds():.9f}", flush=True)


if __name__ == "__main__":
    helper_main()
