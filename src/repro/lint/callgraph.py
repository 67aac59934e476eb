"""Module-level call graph construction for the deep (``--deep``) pass.

The shallow AST rules look at one function at a time, so a
nondeterminism source hidden behind ``import random as r`` plus a helper
call escapes them (their own docstring says so).  The deep pass starts
here: parse every module under the analyzed paths into a
:class:`ModuleIndex` (functions, classes, import aliases, module-level
mutable globals), then resolve each call expression to a **qualified
name** — ``pkg.mod.func``, ``pkg.mod.Class.method``, or an *external*
dotted name such as ``random.choice`` after alias resolution — and record
the edges in a :class:`CallGraph`.

Resolution is deliberately best-effort but *witness-preserving*: an
unresolvable call (a dynamic dispatch through a value we cannot type)
becomes an external edge with whatever dotted spelling the source used,
so the effect analysis in :mod:`repro.lint.summaries` can still match it
against the nondeterminism tables.  What we do resolve:

* direct calls to functions and classes of the same module;
* ``self.method(...)`` / ``cls.method(...)`` inside a class, following
  base classes that resolve inside the analyzed module set (single
  inheritance chains are enough for this tree);
* calls through module-level import aliases (``import random as r``,
  ``from time import time as now``, ``from repro.util import graphs``),
  and through the names a package re-exports, by import or by an
  ``_EXPORTS`` table of lazily served names (``from repro.models
  import SynchronousModel``);
* ``SomeClass(...)`` constructor calls, which resolve to
  ``SomeClass.__init__`` when the class is in the analyzed set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.lint.engine import LintError, iter_python_files

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "ModuleIndex",
    "build_call_graph",
    "module_name_for",
]

#: Calls to names bound by ``dict()``/``list()``-style constructors (or
#: display literals) make a module-level binding a *mutable global* —
#: the thing RP402 watches for writes to.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: *callee* called at *line*:*col*.

    ``callee`` is a qualified name: either a function in the analyzed
    set (``pkg.mod.Class.method``) or an external dotted name after
    alias resolution (``random.choice``).  ``external`` distinguishes
    the two without a second lookup.
    """

    callee: str
    line: int
    col: int
    external: bool


@dataclass
class FunctionInfo:
    """One function or method in the analyzed module set."""

    qualname: str  # "pkg.mod.func" or "pkg.mod.Class.method"
    module: str  # dotted module name
    path: str  # file path (for findings)
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    class_name: Optional[str] = None  # enclosing class, if a method
    is_generator: bool = False
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class ModuleIndex:
    """Everything the resolver needs to know about one module."""

    name: str  # dotted module name
    path: str
    tree: ast.Module
    #: local alias -> dotted target: ``{"r": "random",
    #: "now": "time.time", "graphs": "repro.util.graphs"}``.
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> {method name -> qualname}.
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: class name -> base-class dotted spellings (source order).
    bases: dict[str, list[str]] = field(default_factory=dict)
    #: module-level names bound to mutable containers.
    mutable_globals: set[str] = field(default_factory=set)


def module_name_for(path: Path, roots: dict[str, Path]) -> str:
    """The dotted module name of *path* relative to a known source root.

    ``roots`` maps importable top-level package names to their parent
    directories (e.g. ``{"repro": Path("src")}``); a file outside every
    root gets a name derived from its own stem so fixture trees still
    produce stable qualnames.
    """
    resolved = path.resolve()
    for pkg, root in roots.items():
        try:
            rel = resolved.relative_to(root.resolve())
        except ValueError:
            continue
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if parts and parts[0] == pkg:
            return ".".join(parts)
    return path.with_suffix("").name


def _detect_roots(files: list[Path]) -> dict[str, Path]:
    """Infer package roots: walk up from each file through __init__.py."""
    roots: dict[str, Path] = {}
    for file in files:
        package_dir = file.resolve().parent
        top = None
        while (package_dir / "__init__.py").exists():
            top = package_dir
            package_dir = package_dir.parent
        if top is not None:
            roots.setdefault(top.name, top.parent)
    return roots


def _is_generator(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            # yields inside a nested def belong to that def
            if _owning_function(node, child) is node:
                return True
    return False


def _owning_function(root: ast.AST, target: ast.AST) -> ast.AST:
    """The innermost function of *root*'s tree containing *target*."""
    owner = root
    stack: list[tuple[ast.AST, ast.AST]] = [(root, root)]
    while stack:
        node, current = stack.pop()
        if node is target:
            owner = current
            break
        for child in ast.iter_child_nodes(node):
            nxt = current
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) and child is not root:
                nxt = child
            stack.append((child, nxt))
    return owner


def _index_module(name: str, path: str, tree: ast.Module) -> ModuleIndex:
    index = ModuleIndex(name=name, path=path, tree=tree)
    for node in tree.body:
        _index_statement(index, node)
    return index


def _index_statement(index: ModuleIndex, node: ast.stmt) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            index.imports[local] = target
    elif isinstance(node, ast.ImportFrom):
        if node.module is None or node.level:
            # relative imports: resolve against the module's package
            base = index.name.rsplit(".", max(node.level, 1))[0]
            prefix = f"{base}.{node.module}" if node.module else base
        else:
            prefix = node.module
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            index.imports[local] = f"{prefix}.{alias.name}"
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        index.functions[node.name] = f"{index.name}.{node.name}"
    elif isinstance(node, ast.ClassDef):
        methods = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[item.name] = f"{index.name}.{node.name}.{item.name}"
        index.classes[node.name] = methods
        index.bases[node.name] = [
            _dotted(base) for base in node.bases if _dotted(base)
        ]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if [getattr(t, "id", None) for t in targets] == ["_EXPORTS"] and (
            isinstance(value, ast.Dict)
        ):
            # A ``{"module": ("name", ...)}`` table of lazily served names.
            for module, names in zip(value.keys, value.values):
                for name in getattr(names, "elts", ()):
                    if isinstance(module, ast.Constant) and isinstance(
                        name, ast.Constant
                    ):
                        index.imports[name.value] = f"{module.value}.{name.value}"
        if value is not None and _is_mutable_value(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    index.mutable_globals.add(target.id)
    elif isinstance(node, (ast.If, ast.Try)):
        # TYPE_CHECKING guards and optional-import fallbacks still bind
        # names the resolver should know about.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                _index_statement(index, child)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        tail = _dotted(node.func).rsplit(".", 1)[-1]
        return tail in _MUTABLE_CONSTRUCTORS
    return False


def _dotted(node: ast.expr) -> str:
    """Render a Name/Attribute chain as a dotted string, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class CallGraph:
    """The analyzed module set with resolved call edges.

    Attributes:
        modules: ``{dotted module name: ModuleIndex}``.
        functions: ``{qualname: FunctionInfo}`` for every function,
            method, and nested function in the set.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleIndex] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # -- construction ------------------------------------------------------

    def add_module(self, index: ModuleIndex) -> None:
        self.modules[index.name] = index
        self._collect_functions(index)

    def _collect_functions(self, index: ModuleIndex) -> None:
        for node in index.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(index, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add_function(index, item, class_name=node.name)

    def _add_function(
        self,
        index: ModuleIndex,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: Optional[str],
    ) -> None:
        if class_name:
            qualname = f"{index.name}.{class_name}.{node.name}"
        else:
            qualname = f"{index.name}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=index.name,
            path=index.path,
            node=node,
            class_name=class_name,
            is_generator=_is_generator(node),
        )
        self.functions[qualname] = info

    def finalize(self) -> None:
        """Resolve call edges for every collected function."""
        for info in self.functions.values():
            index = self.modules[info.module]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    site = self._resolve_call(index, info, node)
                    if site is not None:
                        info.calls.append(site)

    # -- resolution --------------------------------------------------------

    def _resolve_call(
        self, index: ModuleIndex, caller: FunctionInfo, node: ast.Call
    ) -> Optional[CallSite]:
        target = self._resolve_callee(index, caller, node.func)
        if target is None:
            return None
        callee, external = target
        return CallSite(
            callee=callee,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            external=external,
        )

    def _resolve_callee(
        self, index: ModuleIndex, caller: FunctionInfo, func: ast.expr
    ) -> Optional[tuple[str, bool]]:
        if isinstance(func, ast.Name):
            return self._resolve_name(index, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(index, caller, func)
        return None

    def _resolve_name(
        self, index: ModuleIndex, name: str
    ) -> Optional[tuple[str, bool]]:
        if name in index.functions:
            return index.functions[name], False
        if name in index.classes:
            init = index.classes[name].get("__init__")
            if init is not None:
                return init, False
            return f"{index.name}.{name}", True
        if name in index.imports:
            target = index.imports[name]
            resolved = self._lookup(target)
            if resolved is not None:
                return resolved, False
            return target, True
        # builtins and unknown names stay external under their own name
        return name, True

    def _resolve_attribute(
        self, index: ModuleIndex, caller: FunctionInfo, func: ast.Attribute
    ) -> Optional[tuple[str, bool]]:
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and caller.class_name:
                resolved = self._resolve_method(
                    index, caller.class_name, func.attr
                )
                if resolved is not None:
                    return resolved, False
                return f"{index.name}.{caller.class_name}.{func.attr}", True
            if base.id in index.classes:
                method = index.classes[base.id].get(func.attr)
                if method is not None:
                    return method, False
            if base.id in index.imports:
                dotted = f"{index.imports[base.id]}.{func.attr}"
                resolved = self._lookup(dotted)
                if resolved is not None:
                    return resolved, False
                return dotted, True
        dotted = _dotted(func)
        if dotted:
            resolved = self._lookup(dotted)
            if resolved is not None:
                return resolved, False
            return dotted, True
        # method call on a computed value: external under the attr name so
        # the mutator tables can still see it
        return func.attr, True

    def _resolve_method(
        self, index: ModuleIndex, class_name: str, method: str
    ) -> Optional[str]:
        """Look *method* up on *class_name*, walking resolvable bases."""
        seen: set[tuple[str, str]] = set()
        stack: list[tuple[ModuleIndex, str]] = [(index, class_name)]
        while stack:
            mod, cls = stack.pop()
            if (mod.name, cls) in seen:
                continue
            seen.add((mod.name, cls))
            methods = mod.classes.get(cls)
            if methods and method in methods:
                return methods[method]
            for base in mod.bases.get(cls, []):
                located = self._locate_class(mod, base)
                if located is not None:
                    stack.append(located)
        return None

    def _locate_class(
        self, index: ModuleIndex, base: str
    ) -> Optional[tuple[ModuleIndex, str]]:
        """Find the ModuleIndex defining a base-class spelling, if any."""
        head, _, tail = base.partition(".")
        if not tail and head in index.classes:
            return index, head
        if not tail and head in index.imports:
            dotted = index.imports[head]
        elif tail and head in index.imports:
            dotted = f"{index.imports[head]}.{tail}"
        else:
            dotted = base
        module_name, _, cls = dotted.rpartition(".")
        mod = self.modules.get(module_name)
        if mod is not None and cls in mod.classes:
            return mod, cls
        return None

    def _lookup(self, dotted: str, hops: int = 8) -> Optional[str]:
        """A dotted spelling that lands on an analyzed function/method,
        following at most *hops* re-exports."""
        if dotted in self.functions:
            return dotted
        module_name, _, attr = dotted.rpartition(".")
        mod = self.modules.get(module_name)
        if mod is not None:
            if attr in mod.functions:
                return mod.functions[attr]
            if attr in mod.classes:
                return mod.classes[attr].get("__init__")
            if attr in mod.imports and hops:
                return self._lookup(mod.imports[attr], hops - 1)
        # Class.method spelled through an import of the class
        head, _, method = module_name.rpartition(".")
        mod = self.modules.get(head)
        if mod is not None and method in mod.classes:
            return mod.classes[method].get(attr)
        return None


def build_call_graph(paths: list[str]) -> CallGraph:
    """Parse every ``.py`` file under *paths* and resolve call edges.

    Unparseable files are skipped here — the shallow engine already
    reports them as ``RP999`` findings, and a half-parsed module would
    only poison resolution for its neighbours.
    """
    files = iter_python_files(paths)
    roots = _detect_roots(files)
    graph = CallGraph()
    for file in files:
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {file}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError:
            continue
        name = module_name_for(file, roots)
        if name in graph.modules:
            # two files mapping to one dotted name (fixture trees without
            # packages): keep both reachable under distinct keys
            name = f"{name}@{len(graph.modules)}"
        graph.add_module(_index_module(name, str(file), tree))
    graph.finalize()
    return graph
