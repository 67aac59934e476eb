"""Per-function effect summaries and the call-graph fixpoint.

Each function in the :class:`~repro.lint.callgraph.CallGraph` gets an
:class:`EffectSummary` describing what calling it *does*, beyond its
return value:

* **nondeterminism** — it (transitively) calls a nondeterminism source:
  ``random``/``secrets``/``uuid``/``time`` attributes, ``os.urandom``,
  the ``id`` builtin, or any ``from random import choice as c``-style
  alias of one;
* **global writes** — it assigns or in-place-mutates a *mutable
  module-level global* (a module dict used as a cache, say), which makes
  it impure: two calls with equal arguments may diverge;
* **receiver mutation** — a method assigns ``self.<attr>`` outside the
  constructor family, so protocol/layering objects evolve between calls;
* **argument mutation** — it mutates a parameter in place (mutator
  method call or subscript/attribute store through a parameter root);
* **resource returns** — its return value contains a process-local
  resource (file handle, socket, lock, generator, logger, thread), which
  is what must never flow into a pool/wire payload.

Every effect is a :class:`Taint` carrying a **witness chain**: the
sequence of calls from the summarized function down to the primitive
source, each step with its file and line.  The fixpoint below propagates
taints caller-ward over the call graph until nothing changes; the chain
is extended one hop per propagation, so by the time a taint surfaces in
an RP4xx finding it reads like a stack trace of the offending path.

The domain is finite (taints are deduplicated by ``(kind, detail)`` per
function — first witness wins) and propagation is monotone, so the
worklist terminates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.lint.ast_rules import MUTATOR_METHODS
from repro.lint.callgraph import CallGraph, CallSite, FunctionInfo

__all__ = [
    "ChainStep",
    "EffectSummary",
    "Taint",
    "compute_summaries",
    "NONDET_EXTERNALS",
    "RESOURCE_CONSTRUCTORS",
]

#: External dotted-name prefixes whose *call* is a nondeterminism source.
#: ``time`` includes monotonic/perf_counter — wall or monotonic clocks in
#: transition code both break replayability.
NONDET_MODULE_PREFIXES = ("random.", "secrets.", "uuid.", "time.")

#: Exact external names that are nondeterminism sources.
NONDET_EXTERNALS = frozenset(
    {
        "id",
        "os.urandom",
        "random",
        "time",
        "input",
        "random.random",
        "secrets.token_bytes",
        "secrets.token_hex",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: External constructor spellings -> the process-local resource kind they
#: produce.  Tail-matched (``socket.socket`` and ``socket`` both hit).
RESOURCE_CONSTRUCTORS: dict[str, str] = {
    "open": "file handle",
    "io.open": "file handle",
    "os.fdopen": "file handle",
    "tempfile.NamedTemporaryFile": "file handle",
    "tempfile.TemporaryFile": "file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Event": "lock",
    "threading.Thread": "thread",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
    "logging.getLogger": "logger",
}


@dataclass(frozen=True)
class ChainStep:
    """One hop of a witness chain: *qualname* entered at *path*:*line*."""

    qualname: str
    path: str
    line: int

    def format(self) -> str:
        return f"{self.qualname} ({self.path}:{self.line})"


@dataclass(frozen=True)
class Taint:
    """One effect with its witness chain.

    ``kind`` is one of ``nondet``, ``global-write``, ``receiver-write``,
    ``arg-mutation``, or a resource kind from
    :data:`RESOURCE_CONSTRUCTORS`; ``detail`` names the primitive source
    (``random.choice``, the global's name, the mutated attribute).  The
    chain's first step is the function the taint is summarized on and the
    last step is the primitive source.
    """

    kind: str
    detail: str
    chain: tuple[ChainStep, ...]

    def extended(self, step: ChainStep) -> "Taint":
        return Taint(self.kind, self.detail, (step,) + self.chain)


class EffectSummary:
    """The mutable per-function summary the fixpoint grows.

    Taints are deduplicated by ``(kind, detail)``; the first witness
    chain discovered for a pair is kept, which both bounds the lattice
    and keeps witnesses short (BFS-ish discovery order).
    """

    __slots__ = (
        "nondet",
        "global_writes",
        "receiver_writes",
        "arg_mutations",
        "resource_returns",
    )

    def __init__(self) -> None:
        self.nondet: dict[str, Taint] = {}
        self.global_writes: dict[str, Taint] = {}
        self.receiver_writes: dict[str, Taint] = {}
        self.arg_mutations: dict[str, Taint] = {}
        self.resource_returns: dict[str, Taint] = {}

    def _bucket(self, kind: str) -> dict[str, Taint]:
        if kind == "nondet":
            return self.nondet
        if kind == "global-write":
            return self.global_writes
        if kind == "receiver-write":
            return self.receiver_writes
        if kind == "arg-mutation":
            return self.arg_mutations
        return self.resource_returns

    def add(self, taint: Taint) -> bool:
        """Add a taint; returns True if the summary changed."""
        bucket = self._bucket(taint.kind)
        key = f"{taint.kind}:{taint.detail}"
        if key in bucket:
            return False
        bucket[key] = taint
        return True


#: Constructor-family methods whose ``self.x = ...`` stores are fine.
_INIT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setstate__", "__set_name__"}
)

#: Callee effects that propagate to callers unconditionally.  Argument
#: mutation does *not* propagate blindly — a helper mutating its own
#: fresh accumulator is a normal pattern; only the direct mutation of the
#: caller's parameters is reported at the caller.
_PROPAGATED_KINDS = ("nondet", "global-write", "receiver-write")


def _param_names(node: ast.AST) -> set[str]:
    args = getattr(node, "args", None)
    if args is None:
        return set()
    names = {
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
    }
    names.discard("self")
    names.discard("cls")
    return names


def _root_name(node: ast.expr) -> str:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _bound_names(target: ast.expr) -> set[str]:
    """Names a binding target actually (re)binds.

    ``x``, ``x, y = ...``, ``*rest`` bind names; ``x[k] = ...`` and
    ``x.attr = ...`` mutate an existing object and bind nothing — the
    distinction matters because a subscript store through a module
    global must *not* look like local shadowing.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for el in target.elts:
            out.update(_bound_names(el))
        return out
    return set()


def _local_bindings(node: ast.AST) -> set[str]:
    """Names assigned anywhere inside the function (shadow module globals)."""
    bound: set[str] = set(_param_names(node))
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                bound.update(_bound_names(target))
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            bound.update(_bound_names(child.target))
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            bound.update(_bound_names(child.target))
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    bound.update(_bound_names(item.optional_vars))
    return bound


def _is_mutable_global(graph: CallGraph, index, root: str) -> bool:
    """Whether *root* names a mutable module-level global here.

    Covers both the module's own bindings and ``from mod import CACHE``
    re-bindings when the defining module is in the analyzed set.
    """
    if root in index.mutable_globals:
        return True
    target = index.imports.get(root)
    if target is None:
        return False
    module_name, _, attr = target.rpartition(".")
    mod = graph.modules.get(module_name)
    return mod is not None and attr in mod.mutable_globals


def _is_nondet_external(name: str) -> Optional[str]:
    """If calling external *name* is a nondeterminism source, its label."""
    if name in NONDET_EXTERNALS:
        return name
    if name.startswith(NONDET_MODULE_PREFIXES):
        return name
    return None


def resource_kind_for(name: str) -> Optional[str]:
    """The resource kind an external constructor call produces, if any."""
    if name in RESOURCE_CONSTRUCTORS:
        return RESOURCE_CONSTRUCTORS[name]
    tail = name.rsplit(".", 1)[-1]
    # tail match only for unambiguous spellings (socket.socket imported
    # as `from socket import socket`)
    for dotted, kind in RESOURCE_CONSTRUCTORS.items():
        if "." in dotted and dotted.rsplit(".", 1)[-1] == tail == "NamedTemporaryFile":
            return kind
    return None


def _direct_effects(
    graph: CallGraph, info: FunctionInfo, summary: EffectSummary
) -> None:
    """Seed *summary* with the function's own (intraprocedural) effects."""
    node = info.node
    index = graph.modules[info.module]
    here = ChainStep(info.qualname, info.path, info.line)
    locals_bound = _local_bindings(node)
    global_decls: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            global_decls.update(child.names)

    params = _param_names(node)
    for child in ast.walk(node):
        # nondeterminism + resource constructors via resolved call edges
        if isinstance(child, ast.Assign) or isinstance(
            child, (ast.AugAssign, ast.AnnAssign)
        ):
            targets = (
                child.targets
                if isinstance(child, ast.Assign)
                else [child.target]
            )
            for target in targets:
                root = _root_name(target)
                line = getattr(target, "lineno", info.line)
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        summary.add(
                            Taint(
                                "global-write",
                                target.id,
                                (
                                    here,
                                    ChainStep(
                                        f"global {target.id} = ...",
                                        info.path,
                                        line,
                                    ),
                                ),
                            )
                        )
                    continue
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                if root == "self":
                    if (
                        info.class_name
                        and info.name not in _INIT_METHODS
                        and isinstance(child, (ast.Assign, ast.AugAssign,
                                               ast.AnnAssign))
                    ):
                        attr = _attr_of(target)
                        summary.add(
                            Taint(
                                "receiver-write",
                                attr,
                                (
                                    here,
                                    ChainStep(
                                        f"self.{attr} = ...",
                                        info.path,
                                        line,
                                    ),
                                ),
                            )
                        )
                elif root not in locals_bound and _is_mutable_global(
                    graph, index, root
                ):
                    summary.add(
                        Taint(
                            "global-write",
                            root,
                            (
                                here,
                                ChainStep(
                                    f"{root}[...] = ...", info.path, line
                                ),
                            ),
                        )
                    )
                elif root in params:
                    summary.add(
                        Taint(
                            "arg-mutation",
                            root,
                            (
                                here,
                                ChainStep(
                                    f"{root}... = ...", info.path, line
                                ),
                            ),
                        )
                    )
        elif isinstance(child, ast.Call):
            func = child.func
            line = getattr(child, "lineno", info.line)
            if isinstance(func, ast.Attribute) and (
                func.attr in MUTATOR_METHODS
            ):
                root = _root_name(func.value)
                if root not in locals_bound and _is_mutable_global(
                    graph, index, root
                ):
                    summary.add(
                        Taint(
                            "global-write",
                            root,
                            (
                                here,
                                ChainStep(
                                    f"{root}.{func.attr}(...)",
                                    info.path,
                                    line,
                                ),
                            ),
                        )
                    )
                elif root == "self" and info.name not in _INIT_METHODS:
                    # self.cache.update(...) — receiver mutation through
                    # an attribute container
                    if isinstance(func.value, ast.Attribute):
                        summary.add(
                            Taint(
                                "receiver-write",
                                f"{_dotted_middle(func.value)}.{func.attr}",
                                (
                                    here,
                                    ChainStep(
                                        f"self.{_dotted_middle(func.value)}"
                                        f".{func.attr}(...)",
                                        info.path,
                                        line,
                                    ),
                                ),
                            )
                        )
                elif root in params:
                    summary.add(
                        Taint(
                            "arg-mutation",
                            root,
                            (
                                here,
                                ChainStep(
                                    f"{root}.{func.attr}(...)",
                                    info.path,
                                    line,
                                ),
                            ),
                        )
                    )

    for site in info.calls:
        if not site.external:
            continue
        label = _is_nondet_external(site.callee)
        if label is not None:
            summary.add(
                Taint(
                    "nondet",
                    label,
                    (
                        here,
                        ChainStep(f"{label}()", info.path, site.line),
                    ),
                )
            )

    # return-value resources: `return open(...)` or `return x` where x
    # was bound to a resource constructor call
    resource_locals = _resource_locals(graph, info)
    for child in ast.walk(node):
        if not isinstance(child, ast.Return) or child.value is None:
            continue
        for kind, detail, line in _resources_in_expr(
            graph, info, child.value, resource_locals
        ):
            summary.add(
                Taint(
                    kind,
                    detail,
                    (here, ChainStep(detail, info.path, line)),
                )
            )
    if info.is_generator:
        summary.add(
            Taint(
                "generator",
                f"generator {info.name}()",
                (here,),
            )
        )


def _attr_of(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _attr_of(node.value)
    return "<attr>"


def _dotted_middle(node: ast.expr) -> str:
    """``self.cache.inner`` -> ``cache.inner`` (drop the self root)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join(reversed(parts))


def _resource_locals(
    graph: CallGraph, info: FunctionInfo
) -> dict[str, tuple[str, str, int]]:
    """Local names bound to resource values: name -> (kind, detail, line).

    Flow-insensitive within the function, run to a small fixpoint so
    ``f = open(...); g = f`` taints both.  Calls into analyzed functions
    consult (partial) summaries lazily via ``graph`` during the global
    fixpoint, so this only records *syntactic* constructor bindings; the
    interprocedural part is handled by ``resource_returns`` propagation.
    """
    out: dict[str, tuple[str, str, int]] = {}
    for _ in range(3):
        changed = False
        for child in ast.walk(info.node):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(child, ast.Assign):
                targets, value = child.targets, child.value
            elif isinstance(child, (ast.AnnAssign,)) and child.value:
                targets, value = [child.target], child.value
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is None:
                        continue
                    found = _resources_in_expr(
                        graph, info, item.context_expr, out
                    )
                    for kind, detail, line in found:
                        for name_node in ast.walk(item.optional_vars):
                            if isinstance(name_node, ast.Name):
                                if name_node.id not in out:
                                    out[name_node.id] = (kind, detail, line)
                                    changed = True
                continue
            if value is None:
                continue
            found = _resources_in_expr(graph, info, value, out)
            if not found:
                continue
            kind, detail, line = found[0]
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        if name_node.id not in out:
                            out[name_node.id] = (kind, detail, line)
                            changed = True
        if not changed:
            break
    return out


def _resources_in_expr(
    graph: CallGraph,
    info: FunctionInfo,
    expr: ast.expr,
    resource_locals: dict[str, tuple[str, str, int]],
) -> list[tuple[str, str, int]]:
    """Resource (kind, detail, line) values syntactically inside *expr*."""
    found: list[tuple[str, str, int]] = []
    for node in ast.walk(expr):
        line = getattr(node, "lineno", info.line)
        if isinstance(node, ast.Call):
            site = _site_for(info, node)
            if site is not None and site.external:
                kind = resource_kind_for(site.callee)
                if kind is not None:
                    found.append((kind, f"{site.callee}(...)", line))
            elif site is not None:
                callee = graph.functions.get(site.callee)
                if callee is not None and callee.is_generator:
                    found.append(
                        ("generator", f"{callee.name}(...)", line)
                    )
        elif isinstance(node, ast.Name) and node.id in resource_locals:
            kind, detail, rline = resource_locals[node.id]
            found.append((kind, detail, line))
        elif isinstance(node, ast.GeneratorExp):
            found.append(("generator", "generator expression", line))
    return found


def _site_for(info: FunctionInfo, node: ast.Call) -> Optional[CallSite]:
    line = getattr(node, "lineno", 0)
    col = getattr(node, "col_offset", 0)
    for site in info.calls:
        if site.line == line and site.col == col:
            return site
    return None


def compute_summaries(graph: CallGraph) -> dict[str, EffectSummary]:
    """Fixpoint over the call graph: ``{qualname: EffectSummary}``.

    Seeds each function with its direct effects, then propagates
    :data:`_PROPAGATED_KINDS` taints and ``resource_returns`` caller-ward
    (a function whose return value is a callee's return value inherits
    the callee's resource taints) until a full pass changes nothing.
    """
    summaries = {q: EffectSummary() for q in graph.functions}
    for qualname, info in graph.functions.items():
        _direct_effects(graph, info, summaries[qualname])

    # reverse edges: callee -> caller sites
    callers: dict[str, list[tuple[str, CallSite]]] = {}
    for qualname, info in graph.functions.items():
        for site in info.calls:
            if not site.external and site.callee in summaries:
                callers.setdefault(site.callee, []).append((qualname, site))

    # which internal calls feed the caller's return value (for resource
    # propagation): caller -> set of callee qualnames returned
    returned_calls: dict[str, set[str]] = {}
    for qualname, info in graph.functions.items():
        returned: set[str] = set()
        for child in ast.walk(info.node):
            if isinstance(child, ast.Return) and child.value is not None:
                for sub in ast.walk(child.value):
                    if isinstance(sub, ast.Call):
                        site = _site_for(info, sub)
                        if site is not None and not site.external:
                            returned.add(site.callee)
        returned_calls[qualname] = returned

    worklist = list(graph.functions)
    in_list = set(worklist)
    while worklist:
        callee = worklist.pop()
        in_list.discard(callee)
        callee_summary = summaries[callee]
        callee_info = graph.functions[callee]
        for caller, site in callers.get(callee, ()):
            caller_summary = summaries[caller]
            caller_info = graph.functions[caller]
            step = ChainStep(caller, caller_info.path, site.line)
            changed = False
            for kind in _PROPAGATED_KINDS:
                for taint in list(callee_summary._bucket(kind).values()):
                    if kind == "receiver-write" and not _shares_receiver(
                        caller_info, callee_info
                    ):
                        continue
                    if caller_summary.add(taint.extended(step)):
                        changed = True
            if callee in returned_calls.get(caller, ()):
                for taint in list(callee_summary.resource_returns.values()):
                    if caller_summary.add(taint.extended(step)):
                        changed = True
            if changed and caller not in in_list:
                worklist.append(caller)
                in_list.add(caller)
    return summaries


def _shares_receiver(caller: FunctionInfo, callee: FunctionInfo) -> bool:
    """Whether a callee's self-mutation mutates the *caller's* receiver.

    True for plain method-to-method calls inside a class hierarchy; a
    call to another object's method mutates that object, which the
    summary cannot attribute to the caller's receiver — RP403 stays on
    the sound side of that line rather than guessing.
    """
    return caller.class_name is not None and callee.class_name is not None
