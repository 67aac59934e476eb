"""Count the code lines of ``src/repro``, per subpackage and in total.

A code line is a non-blank line that holds something other than a
comment or a docstring.  ``tokenize`` finds the lines that carry tokens
(a multi-line string counts every line it spans); ``ast`` finds the
docstrings of modules, classes and functions, whose lines are dropped.
Modules directly under ``src/repro`` count as ``(top level)``.

Run from anywhere: ``python benchmarks/src_lines.py``.  Takes no flags.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Tokens that carry no code of their own.
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's *source*."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(package: Path = PACKAGE) -> Counter:
    """``{subpackage: code lines}`` over every module under *package*."""
    totals: Counter = Counter()
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).parts
        group = parts[0] if len(parts) > 1 else "(top level)"
        totals[group] += code_lines(path.read_text(encoding="utf-8"))
    return totals


def main() -> None:
    totals = count()
    width = max(len(name) for name in totals)
    for name in sorted(totals):
        print(f"{name:<{width}}  {totals[name]:>6,}")
    print(f"{'total':<{width}}  {sum(totals.values()):>6,}")


if __name__ == "__main__":
    main()
