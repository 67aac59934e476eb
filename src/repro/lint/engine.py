"""The replint rule registry and the AST lint engine.

Rules are small classes with a stable code, registered at import time:

* ``RP1xx`` — protocol rules (static, :mod:`repro.lint.ast_rules`);
* ``RP2xx`` — model/layering contract rules (dynamic, checked by
  :mod:`repro.core.contracts` and registered by
  :mod:`repro.lint.contracts` so ``--select``/``--ignore`` and the rule
  listing cover both engines uniformly);
* ``RP3xx`` — harness rules (static);
* ``RP4xx``/``RP5xx`` — interprocedural dataflow rules (deep,
  :mod:`repro.lint.flow_rules`; run only under ``repro lint --deep``).

Codes are API: tests pin them, users suppress them, CI logs them.  A rule
may be rewritten freely but its code never changes meaning.

:func:`lint_source` runs every (selected) static rule over one module's
source; :func:`lint_paths` walks files and directories.  Findings are
plain data (:class:`LintFinding`, defined beside the contract checks in
:mod:`repro.core.contracts`) so callers — the CLI, the tests, CI —
format and filter them however they need.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.contracts import LintFinding


class LintError(Exception):
    """An internal replint failure (unknown rule code, unreadable path).

    Distinct from *findings*: a finding means the analyzed code is
    suspect, a ``LintError`` means the analysis itself could not run.
    The CLI maps findings to exit code 1 and ``LintError`` to 2.
    """


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one rule code.

    ``kind`` is ``"ast"`` for static rules (run by :func:`lint_source`),
    ``"contract"`` for the dynamic preflight rules (run by
    :func:`repro.core.contracts.preflight_system`), and ``"flow"`` for
    the interprocedural rules (run by
    :func:`repro.lint.flow_rules.deep_lint_paths` under ``--deep``);
    all kinds share the code namespace, the selection syntax and the
    listing.
    """

    code: str
    summary: str
    kind: str
    checker: Optional[object] = None  # AstRule instance for kind="ast"


_REGISTRY: dict[str, RuleInfo] = {}


def register_rule(info: RuleInfo) -> RuleInfo:
    """Add one rule to the registry (codes must be unique)."""
    if info.code in _REGISTRY:
        raise LintError(f"duplicate rule code {info.code}")
    _REGISTRY[info.code] = info
    return info


def all_rules() -> dict[str, RuleInfo]:
    """The full registry, ``{code: RuleInfo}``, in code order."""
    _ensure_loaded()
    return dict(sorted(_REGISTRY.items()))


def rule_table() -> list[tuple[str, str, str]]:
    """``(code, kind, summary)`` rows for the CLI's ``--list-rules``."""
    return [
        (info.code, info.kind, info.summary)
        for info in all_rules().values()
    ]


def _ensure_loaded() -> None:
    """Import the rule modules (registration happens at import time)."""
    from repro.lint import ast_rules, contracts, flow_rules  # noqa: F401


def flow_codes() -> frozenset[str]:
    """The registered deep (kind ``"flow"``) rule codes."""
    return frozenset(
        code for code, info in all_rules().items() if info.kind == "flow"
    )


def resolve_codes(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> frozenset[str]:
    """The enabled rule codes after ``--select``/``--ignore`` filtering.

    ``select=None`` means every registered code; unknown codes in either
    list raise :class:`LintError` (a typo must not silently disable a
    rule — the whole point of a preflight is that silence means clean).
    """
    known = frozenset(all_rules())
    enabled = set(known)
    if select is not None:
        wanted = {c.strip().upper() for c in select if c.strip()}
        unknown = wanted - known
        if unknown:
            raise LintError(f"unknown rule code(s): {sorted(unknown)}")
        enabled = wanted
    if ignore is not None:
        dropped = {c.strip().upper() for c in ignore if c.strip()}
        unknown = dropped - known
        if unknown:
            raise LintError(f"unknown rule code(s): {sorted(unknown)}")
        enabled -= dropped
    return frozenset(enabled)


class AstRule:
    """Base class for static rules.

    Subclasses set ``code`` and ``summary`` and implement :meth:`check`,
    yielding findings over one parsed module.  They are stateless: one
    instance serves every file.
    """

    code: str = ""
    summary: str = ""

    def check(self, tree: ast.Module, path: str) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, message: str, path: str) -> LintFinding:
        return LintFinding(
            code=self.code,
            message=message,
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
        )


def register_ast_rule(cls: type[AstRule]) -> type[AstRule]:
    """Class decorator: instantiate and register a static rule."""
    instance = cls()
    register_rule(
        RuleInfo(
            code=cls.code, summary=cls.summary, kind="ast", checker=instance
        )
    )
    return cls


def register_contract_rule(code: str, summary: str) -> str:
    """Register a dynamic (preflight) rule code; returns the code."""
    register_rule(RuleInfo(code=code, summary=summary, kind="contract"))
    return code


def register_flow_rule(code: str, summary: str) -> str:
    """Register an interprocedural (``--deep``) rule code."""
    register_rule(RuleInfo(code=code, summary=summary, kind="flow"))
    return code


def lint_source(
    source: str,
    path: str = "<source>",
    codes: Optional[frozenset[str]] = None,
) -> list[LintFinding]:
    """Run every enabled static rule over one module's source.

    A syntax error is itself reported as a finding (code ``RP999``) —
    unparseable protocol code is certainly not well-formed, and the
    caller keeps its uniform findings-list shape.
    """
    if codes is None:
        codes = resolve_codes()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                code="RP999",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
            )
        ]
    findings: list[LintFinding] = []
    for info in all_rules().values():
        if info.kind != "ast" or info.code not in codes:
            continue
        findings.extend(info.checker.check(tree, path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(paths: Sequence[str]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            raise LintError(f"no such file or directory: {raw}")
    return out


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[LintFinding]:
    """Run the static engine over files and directories (recursively)."""
    codes = resolve_codes(select, ignore)
    findings: list[LintFinding] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {file}: {exc}") from exc
        findings.extend(lint_source(source, str(file), codes))
    return findings
