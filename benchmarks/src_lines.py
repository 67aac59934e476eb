"""Count the code lines of ``src/repro``, per subpackage, per layer and
in total.

A code line is a non-blank line that holds something other than a
comment or a docstring.  ``tokenize`` finds the lines that carry tokens
(a multi-line string counts every line it spans); ``ast`` finds the
docstrings of modules, classes and functions, whose lines are dropped.
Modules directly under ``src/repro`` count as ``(top level)``.

:data:`LAYERS` files every module in one of four layers, and every
import points to its own layer or a lower one (DESIGN.md, "Layers";
``tests/core/test_public_api.py`` checks it).

Run from anywhere: ``python benchmarks/src_lines.py``.  Takes no flags.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The layers, lowest first: each maps to the paths under ``src/repro``
#: it holds, a trailing ``/`` naming a whole directory.  A module belongs
#: to the layer of its longest matching path.
LAYERS = {
    "bottom": (
        "core/state.py", "exitcodes.py", "resilience/__init__.py",
        "resilience/budget.py", "resilience/checkpoint.py",
        "resilience/crashpoint.py",
    ),
    "engine": (
        "__init__.py", "core/", "layerings/", "models/", "protocols/",
        "tasks/", "util/",
    ),
    "drivers": ("analysis/", "log.py", "resilience/"),
    "fronts": ("__main__.py", "cli.py", "lint/", "serve/"),
}


def layer_of(path: str) -> str:
    """The layer of the module at *path* (relative to ``src/repro``);
    ``ValueError`` for a path no entry of :data:`LAYERS` files."""
    matches = [
        (len(entry), layer)
        for layer, entries in LAYERS.items()
        for entry in entries
        if path == entry or (entry.endswith("/") and path.startswith(entry))
    ]
    return max(matches)[1]


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


def count(package: Path = PACKAGE) -> tuple[Counter, Counter]:
    """``{subpackage: code lines}`` and ``{layer: code lines}`` over
    every module under *package*."""
    totals: Counter = Counter()
    layers: Counter = Counter()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        parts = relative.parts
        group = parts[0] if len(parts) > 1 else "(top level)"
        lines = code_lines(path.read_text(encoding="utf-8"))
        totals[group] += lines
        layers[layer_of(relative.as_posix())] += lines
    return totals, layers


def main() -> None:
    totals, layers = count()
    rows = [(name, totals[name]) for name in sorted(totals)]
    rows += [(f"layer: {layer}", layers[layer]) for layer in LAYERS]
    width = max(len(name) for name, _ in rows)
    for name, lines in rows:
        print(f"{name:<{width}}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(totals.values()):>6,}")


if __name__ == "__main__":
    main()
