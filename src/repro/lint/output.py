"""Machine output and the baseline workflow for ``repro lint``.

Two concerns live here, both boring on purpose:

* **JSON reports** (``--format json``): a stable, versioned shape CI
  archives as an artifact.  Deep findings serialize their full witness
  chain, so a dashboard (or a reviewer reading the artifact) sees the
  offending call path without re-running the analysis.

* **Baselines** (``--baseline``): a checked-in list of *accepted*
  findings.  The gate is then "no findings beyond the baseline" — new
  code must be clean, while a reviewed legacy finding does not block
  CI forever.  Entries are keyed by ``(code, path, symbol)`` — not by
  line number, so reformatting a file does not churn the baseline;
  ``symbol`` is the taint detail for deep findings and the message for
  shallow ones.  Each entry also records the ``count`` of findings of
  that shape it accepts: a file with more of them fails the gate with
  all of them reported (which one is new cannot be told), so one
  accepted ``except Exception`` does not hide every later one.  Unused
  baseline entries are reported so the file shrinks as debt is paid
  down instead of fossilizing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import LintError, LintFinding

__all__ = [
    "Baseline",
    "BaselineEntry",
    "apply_baseline",
    "findings_to_json",
    "load_baseline",
    "write_baseline",
]

#: Bumped if the JSON report shape ever changes incompatibly.
REPORT_VERSION = 1

#: The baseline file format; version 2 added the per-entry ``count``.
BASELINE_VERSION = 2


def _symbol_for(finding: LintFinding) -> str:
    """The line-number-independent identity of a finding."""
    witness = finding.witness
    detail = getattr(witness, "detail", None)
    if detail:
        kind = getattr(witness, "kind", "")
        return f"{kind}:{detail}"
    return finding.message


def finding_to_dict(finding: LintFinding) -> dict:
    """One finding as a JSON-ready dict (deep findings get a chain)."""
    out = {
        "code": finding.code,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "symbol": _symbol_for(finding),
    }
    chain = getattr(finding.witness, "chain", None)
    if chain:
        out["chain"] = [
            {"qualname": s.qualname, "path": s.path, "line": s.line}
            for s in chain
        ]
    return out


def findings_to_json(
    findings: Sequence[LintFinding],
    suppressed: int = 0,
    unused_baseline: Sequence["BaselineEntry"] = (),
) -> str:
    """The ``--format json`` report, newline-terminated."""
    report = {
        "version": REPORT_VERSION,
        "findings": [finding_to_dict(f) for f in findings],
        "summary": {
            "total": len(findings),
            "by_code": _by_code(findings),
            "suppressed_by_baseline": suppressed,
            "unused_baseline_entries": [
                e.to_dict() for e in unused_baseline
            ],
        },
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _by_code(findings: Sequence[LintFinding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return dict(sorted(counts.items()))


@dataclass(frozen=True)
class BaselineEntry:
    """Accepted findings: *count* of them matching code + path + symbol."""

    code: str
    path: str
    symbol: str
    count: int

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.code, self.path, self.symbol)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "symbol": self.symbol,
            "count": self.count,
        }


def _key(finding: LintFinding) -> tuple[str, str, str]:
    """The baseline key of a finding (its path with forward slashes)."""
    path = finding.path.replace("\\", "/")
    return (finding.code, path, _symbol_for(finding))


@dataclass
class Baseline:
    """The parsed ``--baseline`` file."""

    entries: list[BaselineEntry]
    path: Optional[str] = None


def load_baseline(path: str) -> Baseline:
    """Read and validate a baseline file (strict: typos must not pass)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise LintError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LintError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "suppressions" not in raw:
        raise LintError(
            f"baseline {path} must be an object with a 'suppressions' list"
        )
    if raw.get("version") != BASELINE_VERSION:
        raise LintError(
            f"baseline {path} is format version {raw.get('version')!r}, "
            f"not {BASELINE_VERSION} (entries without a count); "
            "regenerate it with --write-baseline"
        )
    entries = []
    for i, item in enumerate(raw["suppressions"]):
        try:
            entry = BaselineEntry(
                code=item["code"],
                path=item["path"],
                symbol=item["symbol"],
                count=item["count"],
            )
        except (TypeError, KeyError) as exc:
            raise LintError(
                f"baseline {path} suppression #{i} is malformed: "
                "need code/path/symbol/count"
            ) from exc
        if not isinstance(entry.count, int) or entry.count < 1:
            raise LintError(
                f"baseline {path} suppression #{i} has count "
                f"{entry.count!r}; need a positive integer"
            )
        entries.append(entry)
    return Baseline(entries=entries, path=path)


def write_baseline(path: str, findings: Sequence[LintFinding]) -> None:
    """Accept the current findings as the new baseline."""
    counts = Counter(_key(f) for f in findings)
    payload = {
        "version": BASELINE_VERSION,
        "suppressions": [
            BaselineEntry(*key, count=counts[key]).to_dict()
            for key in sorted(counts)
        ],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    findings: Sequence[LintFinding], baseline: Baseline
) -> tuple[list[LintFinding], int, list[BaselineEntry]]:
    """Split findings against the baseline.

    Returns ``(kept, suppressed_count, unused_entries)``: *kept* are the
    findings the baseline does not cover (the ones that gate) — every
    finding of a shape with no entry, or with more findings than its
    entry's count — and *unused* are baseline entries that matched
    nothing (debt already paid — CI logs them so the file gets pruned).
    """
    counts = Counter(_key(f) for f in findings)
    allowed = {e.key: e.count for e in baseline.entries}
    kept = [f for f in findings if counts[_key(f)] > allowed.get(_key(f), 0)]
    unused = [e for e in baseline.entries if e.key not in counts]
    return kept, len(findings) - len(kept), unused
