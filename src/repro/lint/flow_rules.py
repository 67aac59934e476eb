"""The deep rule families: RP4xx cache/determinism, RP5xx process-safety.

This module is the driver of the ``--deep`` pass (``repro lint --deep``):
build the call graph (:mod:`repro.lint.callgraph`), run the effect
fixpoint (:mod:`repro.lint.summaries`), then evaluate two rule families
the shallow AST rules cannot express:

* **RP4xx — cache/determinism soundness.**  Every byte-parity guarantee
  (cached-vs-uncached verdicts, deterministic parallel merge,
  checkpoint/resume identity) assumes the *transition surface* — the
  methods that define the successor relation on Protocol/Model/Layering
  classes — is pure and deterministic.  RP401 flags transition methods
  that transitively reach a nondeterminism source (through import
  aliases, helpers, and method dispatch); RP402 flags reachable writes
  to mutable module-level globals; RP403 flags reachable mutation of
  the receiver outside the constructor family.  Each finding carries
  the full call chain as its witness.

* **RP5xx — process-safety.**  Payloads shipped across process
  boundaries through :func:`repro.resilience.pool.run_units` (and the
  wire codec under it) must be picklable and process-portable.  RP501
  flags payloads or shipped closures that capture a process-local
  resource (file handle, socket, lock, generator, logger, thread) —
  the exact bug class behind PR 7's negative parallel scaling, where
  rich payloads smuggled per-process state through the pipes.  RP502
  flags shipping a lambda / nested function as the pool entry point
  (unpicklable under the ``spawn`` start method).

Findings reuse :class:`~repro.lint.engine.LintFinding`; the witness
field holds a :class:`FlowWitness` whose chain serializes into the JSON
report (:mod:`repro.lint.output`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
)
from repro.lint.engine import LintFinding, register_flow_rule
from repro.lint.summaries import (
    ChainStep,
    EffectSummary,
    Taint,
    compute_summaries,
)

__all__ = [
    "FLOW_RULES",
    "FlowWitness",
    "TRANSITION_METHODS",
    "deep_lint_paths",
    "transition_entry_points",
]

#: Base/class-name suffixes marking system classes — same heuristic the
#: shallow rules use (:data:`repro.lint.ast_rules.SYSTEM_BASE_SUFFIXES`)
#: extended to the class's own name so the abstract bases themselves
#: (``Protocol``, ``Model``, ``Layering``) are covered when analyzed.
_SYSTEM_SUFFIXES = ("Protocol", "Model", "Layering")

#: Methods on system classes that define the deterministic successor
#: relation the paper's layered analysis derives verdicts from: the
#: successor/decision surface plus the protocol phase hooks the model
#: adapters call from inside it.
TRANSITION_METHODS = frozenset(
    {
        "successors",
        "failed_at",
        "decisions",
        "actions",
        "apply",
        "apply_many",
        "apply_each",
        "compile",
        "run",
        "layer_key",
        "layer_actions",
        "expand",
        "initial_state",
        "initial_states",
        "step",
        "decide",
        "decision",
        "transition",
        "outgoing",
        "write_value",
        "after_reads",
        "initial_local",
        "envs_agree_modulo",
        "nonfaulty_under",
    }
)

#: Resolved callee tails that ship their arguments across process
#: boundaries: ``name -> (fn_arg_index, payload_arg_index)``; a payload
#: index of ``None`` means every positional argument is payload.
_SHIP_TARGETS: dict[str, tuple[Optional[int], Optional[int]]] = {
    "run_units": (0, 1),
    "dumps": (None, 0),  # repro.resilience.wire.dumps
}

#: Which modules a ``dumps`` tail must resolve into to count as the wire
#: codec (``json.dumps`` ships nothing).
_WIRE_MODULES = ("repro.resilience.wire", "repro.resilience.pool")

RP401 = register_flow_rule(
    "RP401",
    "transition code transitively reaches a nondeterminism source "
    "(through import aliases, helpers and method dispatch)",
)
RP402 = register_flow_rule(
    "RP402",
    "transition code transitively writes a mutable module-level global "
    "— impure transitions break cache parity and resume identity",
)
RP403 = register_flow_rule(
    "RP403",
    "transition code transitively mutates its receiver outside "
    "__init__ — system objects must be stateless between calls",
)
RP501 = register_flow_rule(
    "RP501",
    "pool/wire payload captures a process-local resource "
    "(file handle, socket, lock, generator, logger, thread)",
)
RP502 = register_flow_rule(
    "RP502",
    "pool entry callable is a lambda or nested function — unpicklable "
    "under the spawn start method",
)

#: The deep rule codes this module registers, in order.
FLOW_RULES = ("RP401", "RP402", "RP403", "RP501", "RP502")


@dataclass(frozen=True)
class FlowWitness:
    """The call-chain witness attached to a deep finding."""

    kind: str
    detail: str
    chain: tuple[ChainStep, ...]

    def format(self) -> str:
        return " -> ".join(step.format() for step in self.chain)


def _is_system_class(graph: CallGraph, module: str, cls: str) -> bool:
    index = graph.modules[module]
    if cls.endswith(_SYSTEM_SUFFIXES):
        return True
    seen: set[tuple[str, str]] = set()
    stack = [(index, cls)]
    while stack:
        mod, name = stack.pop()
        if (mod.name, name) in seen:
            continue
        seen.add((mod.name, name))
        for base in mod.bases.get(name, []):
            tail = base.rsplit(".", 1)[-1]
            if tail.endswith(_SYSTEM_SUFFIXES):
                return True
            located = graph._locate_class(mod, base)
            if located is not None:
                stack.append(located)
    return False


def transition_entry_points(graph: CallGraph) -> list[FunctionInfo]:
    """Transition-surface methods of system classes, in qualname order."""
    out = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        if info.class_name is None:
            continue
        if info.name not in TRANSITION_METHODS:
            continue
        if _is_system_class(graph, info.module, info.class_name):
            out.append(info)
    return out


def _finding(
    code: str, info: FunctionInfo, message: str, taint: Taint
) -> LintFinding:
    witness = FlowWitness(taint.kind, taint.detail, taint.chain)
    return LintFinding(
        code=code,
        message=f"{message}; call chain: {witness.format()}",
        path=info.path,
        line=info.line,
        col=getattr(info.node, "col_offset", 0),
        witness=witness,
    )


def _entry_findings(
    graph: CallGraph,
    summaries: dict[str, EffectSummary],
    codes: frozenset[str],
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for info in transition_entry_points(graph):
        summary = summaries[info.qualname]
        if "RP401" in codes:
            for taint in summary.nondet.values():
                findings.append(
                    _finding(
                        "RP401",
                        info,
                        f"transition method {info.name!r} reaches "
                        f"nondeterminism source {taint.detail!r}: verdicts, "
                        "caches and checkpoints assume deterministic "
                        "transitions",
                        taint,
                    )
                )
        if "RP402" in codes:
            for taint in summary.global_writes.values():
                findings.append(
                    _finding(
                        "RP402",
                        info,
                        f"transition method {info.name!r} reaches a write "
                        f"to module-level global {taint.detail!r}: impure "
                        "transitions diverge between cached and uncached "
                        "runs",
                        taint,
                    )
                )
        if "RP403" in codes:
            for taint in summary.receiver_writes.values():
                findings.append(
                    _finding(
                        "RP403",
                        info,
                        f"transition method {info.name!r} reaches a "
                        f"receiver mutation (self.{taint.detail}): one "
                        "system object drives every branch, so instance "
                        "state leaks across runs",
                        taint,
                    )
                )
    return findings


def _ship_target(
    graph: CallGraph, info: FunctionInfo, node: ast.Call
) -> Optional[tuple[str, Optional[int], Optional[int]]]:
    """If *node* ships payloads across processes, its (name, fn, payload)."""
    for site in info.calls:
        if site.line != getattr(node, "lineno", 0) or site.col != getattr(
            node, "col_offset", 0
        ):
            continue
        tail = site.callee.rsplit(".", 1)[-1]
        if tail not in _SHIP_TARGETS:
            return None
        if tail == "dumps" and not site.callee.startswith(_WIRE_MODULES):
            return None
        fn_arg, payload_arg = _SHIP_TARGETS[tail]
        return site.callee, fn_arg, payload_arg
    return None


def _tainted_locals(
    graph: CallGraph,
    info: FunctionInfo,
    summaries: dict[str, EffectSummary],
) -> dict[str, Taint]:
    """Locals bound to resource values, interprocedurally.

    Combines the syntactic constructor bindings from
    :func:`repro.lint.summaries._resource_locals` with bindings whose
    right-hand side calls an analyzed function that *returns* a resource
    (per its summary), chains included.
    """
    from repro.lint.summaries import _resource_locals, _site_for

    here = ChainStep(info.qualname, info.path, info.line)
    out: dict[str, Taint] = {}
    for name, (kind, detail, line) in _resource_locals(graph, info).items():
        out[name] = Taint(
            kind, detail, (here, ChainStep(detail, info.path, line))
        )
    # propagate: through internal calls that return resources, and
    # through container/aliasing assignments (units = [(1, log)]) —
    # a few passes reach a fixpoint on straight-line locals
    for _ in range(4):
        changed = False
        for child in ast.walk(info.node):
            if not isinstance(child, ast.Assign):
                continue
            taint: Optional[Taint] = None
            for sub in ast.walk(child.value):
                if isinstance(sub, ast.Name) and sub.id in out:
                    taint = out[sub.id]
                    break
                if not isinstance(sub, ast.Call):
                    continue
                site = _site_for(info, sub)
                if site is None or site.external:
                    continue
                callee_summary = summaries.get(site.callee)
                if callee_summary is None:
                    continue
                for ret in callee_summary.resource_returns.values():
                    step = ChainStep(
                        info.qualname, info.path, site.line
                    )
                    taint = ret.extended(step)
                    break
                if taint is not None:
                    break
            if taint is None:
                continue
            for target in child.targets:
                for name_node in ast.walk(target):
                    if (
                        isinstance(name_node, ast.Name)
                        and name_node.id not in out
                    ):
                        out[name_node.id] = taint
                        changed = True
        if not changed:
            break
    return out


def _local_def_names(node: ast.AST) -> set[str]:
    """Functions defined *inside* this function (unpicklable to ship)."""
    names: set[str] = set()
    for child in ast.walk(node):
        if child is node:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
    return names


def _ship_findings(
    graph: CallGraph,
    summaries: dict[str, EffectSummary],
    codes: frozenset[str],
) -> list[LintFinding]:
    from repro.lint.summaries import _resources_in_expr

    findings: list[LintFinding] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        tainted = None  # computed lazily, most functions ship nothing
        local_defs = None
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = _ship_target(graph, info, node)
            if target is None:
                continue
            ship_name, fn_arg, payload_arg = target
            if tainted is None:
                tainted = _tainted_locals(graph, info, summaries)
                local_defs = _local_def_names(info.node)
            payload_exprs: list[ast.expr] = []
            if payload_arg is None:
                payload_exprs.extend(node.args)
            elif payload_arg < len(node.args):
                payload_exprs.append(node.args[payload_arg])
            payload_exprs.extend(
                kw.value for kw in node.keywords if kw.arg == "units"
            )
            fn_exprs: list[ast.expr] = []
            if fn_arg is not None and fn_arg < len(node.args):
                fn_exprs.append(node.args[fn_arg])
            fn_exprs.extend(
                kw.value for kw in node.keywords if kw.arg == "fn"
            )
            line = getattr(node, "lineno", info.line)

            if "RP501" in codes:
                for expr in payload_exprs + fn_exprs:
                    for taint in _payload_taints(
                        graph, info, expr, tainted
                    ):
                        here = ChainStep(info.qualname, info.path, line)
                        chain = (
                            taint.chain
                            if taint.chain and taint.chain[0].qualname
                            == info.qualname
                            else (here,) + taint.chain
                        )
                        findings.append(
                            _finding(
                                "RP501",
                                info,
                                f"payload shipped through {ship_name} "
                                f"captures a {taint.kind} "
                                f"({taint.detail}): process-local "
                                "resources cannot cross the pool "
                                "boundary",
                                Taint(taint.kind, taint.detail, chain),
                            )
                        )
            if "RP502" in codes:
                for expr in fn_exprs:
                    if isinstance(expr, ast.Lambda) or (
                        isinstance(expr, ast.Name)
                        and local_defs is not None
                        and expr.id in local_defs
                    ):
                        label = (
                            "a lambda"
                            if isinstance(expr, ast.Lambda)
                            else f"nested function {expr.id!r}"
                        )
                        findings.append(
                            LintFinding(
                                code="RP502",
                                message=f"pool entry callable for "
                                f"{ship_name} is {label}: unpicklable "
                                "under the spawn start method — use a "
                                "module-level function",
                                path=info.path,
                                line=getattr(expr, "lineno", line),
                                col=getattr(expr, "col_offset", 0),
                            )
                        )
    return findings


def _payload_taints(
    graph: CallGraph,
    info: FunctionInfo,
    expr: ast.expr,
    tainted: dict[str, Taint],
) -> list[Taint]:
    """Resource taints syntactically or referentially inside *expr*."""
    from repro.lint.summaries import _resources_in_expr

    here = ChainStep(info.qualname, info.path, getattr(expr, "lineno", 0))
    out: list[Taint] = []
    seen: set[tuple[str, str]] = set()
    # referential: names (and lambda free variables) bound to resources
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in tainted:
            taint = tainted[node.id]
            if (taint.kind, taint.detail) not in seen:
                seen.add((taint.kind, taint.detail))
                out.append(taint)
    # syntactic: constructors inline in the payload expression
    for kind, detail, line in _resources_in_expr(graph, info, expr, {}):
        if (kind, detail) not in seen:
            seen.add((kind, detail))
            out.append(
                Taint(
                    kind,
                    detail,
                    (here, ChainStep(detail, info.path, line)),
                )
            )
    return out


def deep_lint_paths(
    paths: Sequence[str],
    codes: Optional[frozenset[str]] = None,
) -> list[LintFinding]:
    """Run the interprocedural pass over *paths*; deep findings only.

    ``codes`` filters which RP4xx/RP5xx rules report (the graph and the
    fixpoint always run in full — summaries are shared infrastructure).
    The shallow static rules are *not* run here; ``repro lint --deep``
    composes both engines.
    """
    if codes is None:
        codes = frozenset(FLOW_RULES)
    graph = build_call_graph(list(paths))
    summaries = compute_summaries(graph)
    findings = _entry_findings(graph, summaries, codes)
    findings.extend(_ship_findings(graph, summaries, codes))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
