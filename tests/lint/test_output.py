"""JSON report shape and the baseline workflow (repro.lint.output)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.lint.engine import LintError, LintFinding
from repro.lint.flow import (
    apply_baseline,
    deep_lint_paths,
    findings_to_json,
    load_baseline,
    write_baseline,
)

from tests.lint.test_callgraph import write_tree

NOISY_TREE = {
    "proto.py": """
    import random

    class P(Protocol):
        def step(self, s):
            return random.random()
    """
}


@pytest.fixture
def findings(tmp_path):
    write_tree(tmp_path / "tree", NOISY_TREE)
    return deep_lint_paths([str(tmp_path / "tree")])


class TestJsonReport:
    def test_shape_and_chain(self, findings):
        report = json.loads(findings_to_json(findings))
        assert report["version"] == 1
        assert report["summary"]["total"] == 1
        assert report["summary"]["by_code"] == {"RP401": 1}
        (item,) = report["findings"]
        assert item["code"] == "RP401"
        assert item["path"].endswith("proto.py")
        assert item["symbol"] == "nondet:random.random"
        chain = item["chain"]
        assert chain[0]["qualname"] == "proto.P.step"
        assert all(
            set(step) == {"qualname", "path", "line"} for step in chain
        )

    def test_shallow_findings_serialize_without_chain(self):
        finding = LintFinding(
            code="RP301", message="m", path="x.py", line=3, col=1
        )
        report = json.loads(findings_to_json([finding]))
        assert "chain" not in report["findings"][0]
        assert report["findings"][0]["symbol"] == "m"

    def test_empty_report(self):
        report = json.loads(findings_to_json([]))
        assert report["findings"] == []
        assert report["summary"]["total"] == 0


class TestBaseline:
    def test_roundtrip_suppresses_everything(self, tmp_path, findings):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        baseline = load_baseline(str(baseline_path))
        kept, suppressed, unused = apply_baseline(findings, baseline)
        assert kept == []
        assert suppressed == len(findings)
        assert unused == []

    def test_line_numbers_do_not_churn_the_baseline(
        self, tmp_path, findings
    ):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        # the same tree with a comment pushed above the class: every
        # line moves, the baseline still matches
        shifted = {
            "proto.py": "# a new leading comment\n# another\n"
            + "import random\n\nclass P(Protocol):\n"
            + "    def step(self, s):\n"
            + "        return random.random()\n"
        }
        tree = tmp_path / "shifted"
        for name, body in shifted.items():
            tree.mkdir(exist_ok=True)
            (tree / name).write_text(body)
        moved = deep_lint_paths([str(tree)])
        assert moved and moved[0].line != findings[0].line
        baseline = load_baseline(str(baseline_path))
        # paths differ between the two trees; rewrite them to match
        entries = [
            dataclasses.replace(e, path=moved[0].path)
            for e in baseline.entries
        ]
        baseline.entries = entries
        kept, suppressed, _ = apply_baseline(moved, baseline)
        assert kept == [] and suppressed == 1

    def test_new_finding_is_kept(self, tmp_path, findings):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), [])
        baseline = load_baseline(str(baseline_path))
        kept, suppressed, unused = apply_baseline(findings, baseline)
        assert kept == findings
        assert suppressed == 0

    def test_unused_entries_reported(self, tmp_path, findings):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        baseline = load_baseline(str(baseline_path))
        kept, _, unused = apply_baseline([], baseline)
        assert kept == []
        assert len(unused) == len(findings)

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(LintError):
            load_baseline(str(bad))
        bad.write_text('{"suppressions": [{"code": "RP401"}]}')
        with pytest.raises(LintError):
            load_baseline(str(bad))
        with pytest.raises(LintError):
            load_baseline(str(tmp_path / "missing.json"))

    def test_count_less_baseline_is_refused(self, tmp_path):
        # the version-1 format had no counts: one entry hid any number
        # of findings of its shape, so it is not read at all
        old = tmp_path / "old.json"
        old.write_text(
            '{"version": 1, "suppressions": [{"code": "RP401", '
            '"path": "x.py", "symbol": "s"}]}'
        )
        with pytest.raises(LintError, match="--write-baseline"):
            load_baseline(str(old))

    def test_findings_beyond_the_count_all_gate(self, tmp_path, findings):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), findings)
        baseline = load_baseline(str(baseline_path))
        assert [e.count for e in baseline.entries] == [1]
        kept, suppressed, unused = apply_baseline(findings * 2, baseline)
        assert kept == findings * 2
        assert suppressed == 0 and unused == []
