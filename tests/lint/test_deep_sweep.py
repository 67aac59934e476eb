"""The deep self-sweep: parity with the checked-in baseline + latency.

Two acceptance criteria from ISSUE 10 live here:

* **sweep parity** — ``repro lint --deep src/repro`` must produce zero
  findings beyond ``.replint-baseline.json``.  This is the
  zero-new-false-positives pin: any rule change that starts flagging
  shipped code fails this test instead of silently dirtying CI, and any
  fixed finding shows up as an unused baseline entry to prune.
* **latency** — deep analysis of the full package completes in under
  10 seconds (it runs as a default-off CLI pass and a CI gate, so its
  cost budget is explicit).

The smoke test at the bottom is the tier-1 guard that the engine itself
works end to end on a toy tree — CI runs this file on every PR, so a
deep-engine regression cannot hide behind an accidentally-clean sweep.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.lint.flow import (
    apply_baseline,
    build_call_graph,
    compute_summaries,
    deep_lint_paths,
    load_baseline,
    transition_entry_points,
)
from repro.lint import lint_paths

from tests.lint.test_callgraph import write_tree

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
BASELINE = REPO / ".replint-baseline.json"


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    findings = lint_paths([str(SRC)]) + deep_lint_paths([str(SRC)])
    elapsed = time.monotonic() - start
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, elapsed


class TestSelfSweep:
    def test_deep_findings_are_clean(self):
        # the interprocedural pass on its own: the shipped transition
        # code has no reachable nondeterminism/impurity and no payload
        # captures — deep findings need no baseline at all
        assert deep_lint_paths([str(SRC)]) == []

    def test_sweep_parity_with_checked_in_baseline(self, sweep):
        findings, _ = sweep
        baseline = load_baseline(str(BASELINE))
        # baseline paths are repo-relative; the sweep above ran from an
        # absolute path — normalize for comparison
        for finding in findings:
            assert str(REPO) in finding.path
        rel = [
            type(f)(
                code=f.code,
                message=f.message,
                path=str(Path(f.path).relative_to(REPO)).replace(
                    "\\", "/"
                ),
                line=f.line,
                col=f.col,
                witness=f.witness,
            )
            for f in findings
        ]
        kept, suppressed, unused = apply_baseline(rel, baseline)
        assert kept == [], (
            "new lint findings beyond .replint-baseline.json:\n"
            + "\n".join(f.format() for f in kept)
        )
        assert not unused, (
            "stale baseline entries (the debt was paid — prune them):\n"
            + "\n".join(str(e.to_dict()) for e in unused)
        )
        # each entry accepts exactly its count of findings of its shape
        assert suppressed == sum(e.count for e in baseline.entries) > 0

    def test_one_more_swallow_in_pool_fails_the_gate(
        self, tmp_path, monkeypatch
    ):
        # A copy of pool.py at its repo-relative path passes the gate;
        # one added `except Exception: pass` makes it fail, reporting
        # every finding of that shape (which one is new cannot be told).
        copy = tmp_path / "src" / "repro" / "resilience" / "pool.py"
        copy.parent.mkdir(parents=True)
        source = (SRC / "resilience" / "pool.py").read_text()
        copy.write_text(source)
        monkeypatch.chdir(tmp_path)
        baseline = load_baseline(str(BASELINE))
        rel = "src/repro/resilience/pool.py"
        kept, suppressed, _ = apply_baseline(lint_paths([rel]), baseline)
        assert kept == [] and suppressed > 0
        copy.write_text(
            source
            + "\n\ndef _extra():\n    try:\n        pass\n"
            + "    except Exception:\n        pass\n"
        )
        findings = lint_paths([rel])
        kept, _, _ = apply_baseline(findings, baseline)
        assert kept
        assert {f.code for f in kept} == {"RP301"}
        assert all("except Exception" in f.message for f in kept)
        assert len(kept) == 1 + next(
            e.count
            for e in baseline.entries
            if e.path == rel and e.symbol.startswith("except Exception")
        )

    def test_full_package_deep_analysis_under_ten_seconds(self, sweep):
        _, elapsed = sweep
        assert elapsed < 10.0, (
            f"deep sweep took {elapsed:.1f}s — the <10s acceptance "
            "budget is blown"
        )

    def test_sweep_is_not_vacuous(self):
        # the clean verdict must come from analysis, not from an empty
        # graph: the shipped tree has a substantial transition surface
        graph = build_call_graph([str(SRC)])
        assert len(graph.modules) > 50
        assert len(graph.functions) > 500
        entries = transition_entry_points(graph)
        assert len(entries) > 50
        names = {e.qualname for e in entries}
        assert "repro.layerings.base.Layering.successors" in names
        assert "repro.models.base.Model.apply" in names
        summaries = compute_summaries(graph)
        # harness code legitimately uses clocks/randomness — the pass
        # must have seen those effects and *scoped* them out, not
        # missed them
        assert any(s.nondet for s in summaries.values())
        assert any(s.receiver_writes for s in summaries.values())


class TestDeepSmoke:
    """Tier-1 end-to-end exercise of the engine on a seeded toy tree."""

    def test_toy_tree_end_to_end(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "helpers.py": """
                import random as r

                STATS = {}

                def pick(xs):
                    return _inner(xs)

                def _inner(xs):
                    return r.choice(xs)

                def count(k):
                    STATS[k] = STATS.get(k, 0) + 1
                """,
                "proto.py": """
                from helpers import pick, count

                class Coin(Protocol):
                    def step(self, state):
                        count("step")
                        return pick([0, 1])
                """,
                "driver.py": """
                from repro.resilience.pool import run_units

                def work(p):
                    return p

                def drive():
                    fh = open("/tmp/x")
                    return run_units(work, [(1, fh)])
                """,
            },
        )
        findings = deep_lint_paths([str(tmp_path)])
        codes = sorted({f.code for f in findings})
        assert codes == ["RP401", "RP402", "RP501"]
        # every deep finding carries a non-trivial chain witness
        for finding in findings:
            assert finding.witness is not None
            assert len(finding.witness.chain) >= 2
