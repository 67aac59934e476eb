"""Cold start per entry point: a fresh interpreter to its first result.

At the paper's small sizes (Theorem 4.2 at n=2, Corollary 6.3 at n=3
with t=1) a CLI run is mostly start-up, so this script times it apart
from the engine.  Each entry point runs in a fresh interpreter:

* ``import repro.core.checker`` and ``import repro.cli``: the import
  alone;
* ``repro impossibility --n 2`` and ``repro lower-bound --n 3 --t 1``:
  ``python -m repro`` to its exit, stdout discarded;
* ``repro serve``: until the server writes its endpoint file (pools
  forked, socket bound), after which it is sent SIGTERM.

The entry points run interleaved, one of each per repeat, so a burst
of load elsewhere on the machine falls on all of them alike.  Each
figure is the median [q1, q3] of ``--repeat`` runs (default 5) in
milliseconds.  ``repro modules`` counts the ``repro`` modules the entry
point loads, from one extra ``python -X importtime`` run that is not
timed.  The table lands in ``benchmarks/results/bench_startup.txt`` and
on stdout.  The children import ``repro`` from ``PYTHONPATH``; to
compare two trees, run it alternately under each tree's ``src``:

    PYTHONPATH=src python -m benchmarks.bench_startup [--repeat R]
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table

#: Entry point -> the interpreter arguments that run it.
ENTRY_POINTS = {
    "import repro.core.checker": ["-c", "import repro.core.checker"],
    "import repro.cli": ["-c", "import repro.cli"],
    "repro impossibility --n 2": ["-m", "repro", "impossibility", "--n", "2"],
    "repro lower-bound --n 3 --t 1": [
        "-m", "repro", "lower-bound", "--n", "3", "--t", "1",
    ],
    "repro serve": ["-m", "repro", "serve", "--dir"],
}
SERVE = "repro serve"


def _serve(flags: list[str]) -> tuple[float, str]:
    """Seconds until a fresh ``repro serve`` writes its endpoint file,
    and the server's stderr once it has drained on SIGTERM."""
    workdir = Path(tempfile.mkdtemp(prefix="bench-startup-"))
    try:
        endpoint = workdir / "endpoint"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *flags, *ENTRY_POINTS[SERVE], str(workdir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            while not endpoint.exists():
                if proc.poll() is not None:
                    raise RuntimeError("repro serve exited before serving")
                time.sleep(0.001)
            seconds = time.perf_counter() - start
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        return seconds, stderr
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(name: str, flags: list[str] = ()) -> tuple[float, str]:
    """Seconds for one cold start of entry point *name*, and its stderr."""
    if name == SERVE:
        return _serve(list(flags))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *flags, *ENTRY_POINTS[name]],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{name} exited {done.returncode}: {done.stderr}")
    return seconds, done.stderr


def repro_modules(name: str) -> int:
    """How many ``repro`` modules entry point *name* loads."""
    _, stderr = run(name, ["-X", "importtime"])
    loaded = set()
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            module = line.rsplit("|", 1)[-1].strip()
            if module.split(".")[0] == "repro":
                loaded.add(module)
    return len(loaded)


def _summary(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"{samples[0]:.0f}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"{statistics.median(samples):.0f} [{q1:.0f}, {q3:.0f}]"


def measure(repeat: int) -> list[tuple[str, int, str]]:
    """The table's rows: entry point, repro modules, median [q1, q3] ms."""
    samples: dict[str, list[float]] = {name: [] for name in ENTRY_POINTS}
    for _ in range(repeat):
        for name in ENTRY_POINTS:
            samples[name].append(run(name)[0] * 1e3)
    return [
        (name, repro_modules(name), _summary(samples[name]) + " ms")
        for name in ENTRY_POINTS
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="cold starts per entry point (default 5)")
    args = parser.parse_args(argv)
    table = render_table(
        ("entry point", "repro modules", "median [q1, q3]"),
        measure(max(1, args.repeat)),
    )
    save_table(
        "bench_startup",
        f"Cold start per entry point (repeat {args.repeat}, "
        f"{os.cpu_count()} cores, Python {sys.version.split()[0]})",
        table,
    )
    print(table)


if __name__ == "__main__":
    main()
