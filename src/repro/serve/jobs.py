"""Job specifications for the verification server.

A job is a small, validated, canonically-serializable request.  Two
kinds exist:

``refute``
    One exhaustive consensus sweep: a named protocol candidate in one of
    its Section 5 standard layerings, for *n* processes — the same unit
    of work `repro impossibility` campaigns over, exposed as a repeat
    query.

``probe``
    A deterministic hash-chain busy-loop with a tunable cost knob.  It
    exists so load tests and chaos sweeps can exercise the server's
    machinery (admission, durability, recovery) with jobs whose runtime
    and output are exactly controlled.

Every job has a **fingerprint**: a sha256 over its canonical JSON form,
which for refute jobs folds in the layered system's structural
fingerprint (:func:`repro.resilience.checkpoint.system_fingerprint` — the
same identity the checkpoint/cache layer keys on).  The fingerprint is the
job's identity everywhere: dedupe at admission, the ledger's record
keys, and the verdict store's content address.

:func:`run_job` is the module-level pool unit function — picklable, so
the server can dispatch it through the fault-isolated pool.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from repro.resilience.budget import Budget

__all__ = [
    "InvalidJob",
    "JobSpec",
    "KIND_PROBE",
    "KIND_REFUTE",
    "canonical_json",
    "run_job",
]

KIND_REFUTE = "refute"
KIND_PROBE = "probe"

_KINDS = (KIND_REFUTE, KIND_PROBE)

#: Bounds keeping a single job's declared work inside what one server
#: process should ever accept (quotas and deadlines bound actual usage).
MAX_N = 6
MAX_PROBE_WORK = 1_000_000
MAX_VALUE_LEN = 256


class InvalidJob(ValueError):
    """A job request that fails validation (never enqueued)."""


def canonical_json(obj) -> bytes:
    """The canonical byte serialization used for fingerprints and the
    verdict store: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


@dataclass(frozen=True)
class JobSpec:
    """One validated job request.

    Refute jobs use *protocol*, *model*, *n* and optionally
    *max_states*; probe jobs use *work* and *value*.  Fields foreign to
    a kind are rejected at validation so every accepted spec has exactly
    one canonical form.
    """

    kind: str = KIND_REFUTE
    protocol: str = "quorum"
    model: str = "s1-mobile"
    n: int = 3
    max_states: Optional[int] = None
    work: int = 1000
    value: str = ""

    @classmethod
    def from_dict(cls, raw: object) -> "JobSpec":
        """Validate a wire-format job dict into a spec.

        Raises :class:`InvalidJob` with a one-line reason on any
        malformed request; the server turns that into a structured
        REJECTED response, never a crash.
        """
        if not isinstance(raw, dict):
            raise InvalidJob("job must be an object")
        kind = raw.get("kind", KIND_REFUTE)
        if kind not in _KINDS:
            raise InvalidJob(f"unknown job kind {kind!r}")
        allowed = (
            {"kind", "protocol", "model", "n", "max_states"}
            if kind == KIND_REFUTE
            else {"kind", "work", "value"}
        )
        extra = sorted(set(raw) - allowed)
        if extra:
            raise InvalidJob(
                f"fields {extra} do not apply to kind {kind!r}"
            )
        if kind == KIND_PROBE:
            work = raw.get("work", 1000)
            value = raw.get("value", "")
            if not isinstance(work, int) or not 1 <= work <= MAX_PROBE_WORK:
                raise InvalidJob(
                    f"probe work must be an int in [1, {MAX_PROBE_WORK}]"
                )
            if not isinstance(value, str) or len(value) > MAX_VALUE_LEN:
                raise InvalidJob(
                    f"probe value must be a string of <= {MAX_VALUE_LEN} chars"
                )
            return cls(kind=KIND_PROBE, work=work, value=value)
        from repro.protocols.registry import PROTOCOLS

        protocol = raw.get("protocol", "quorum")
        model = raw.get("model", "s1-mobile")
        n = raw.get("n", 3)
        max_states = raw.get("max_states")
        if protocol not in PROTOCOLS:
            raise InvalidJob(
                f"unknown protocol {protocol!r} "
                f"(choose from {sorted(PROTOCOLS)})"
            )
        if not isinstance(n, int) or not 2 <= n <= MAX_N:
            raise InvalidJob(f"n must be an int in [2, {MAX_N}]")
        if max_states is not None and (
            not isinstance(max_states, int) or max_states < 1
        ):
            raise InvalidJob("max_states must be a positive int")
        if not isinstance(model, str):
            raise InvalidJob("model must be a string")
        names = _layering_names(protocol, n)
        if model not in names:
            raise InvalidJob(
                f"protocol {protocol!r} has no layering {model!r} "
                f"(choose from {sorted(names)})"
            )
        return cls(
            kind=KIND_REFUTE,
            protocol=protocol,
            model=model,
            n=n,
            max_states=max_states,
        )

    def canonical(self) -> dict:
        """The canonical wire dict — only the fields this kind uses."""
        if self.kind == KIND_PROBE:
            return {"kind": self.kind, "work": self.work, "value": self.value}
        spec: dict = {
            "kind": self.kind,
            "protocol": self.protocol,
            "model": self.model,
            "n": self.n,
        }
        if self.max_states is not None:
            spec["max_states"] = self.max_states
        return spec

    def fingerprint(self) -> str:
        """Content identity: sha256 over the canonical spec, folding in
        the layered system's structural fingerprint for refute jobs."""
        ident = {"job": self.canonical()}
        if self.kind == KIND_REFUTE:
            ident["system"] = _system_identity(
                self.protocol, self.model, self.n
            )
        return hashlib.sha256(canonical_json(ident)).hexdigest()

    def describe(self) -> str:
        if self.kind == KIND_PROBE:
            return f"probe(work={self.work})"
        return f"refute({self.protocol}/{self.model}, n={self.n})"

    def _layering(self):
        return _build_layering(self.protocol, self.model, self.n)


def _build_layering(protocol: str, model: str, n: int):
    from repro.analysis.impossibility import standard_layering_classes
    from repro.protocols.registry import PROTOCOLS

    instance = PROTOCOLS[protocol](n)
    layering, model_cls = standard_layering_classes(instance)[model]
    return layering(model_cls(instance, n))


@functools.lru_cache(maxsize=256)
def _system_identity(protocol: str, model: str, n: int) -> str:
    """The structural fingerprint of a refute job's layered system.

    Cached: every submit computes a job fingerprint, and building a
    layering compiles its layers."""
    from repro.resilience.checkpoint import system_fingerprint

    return system_fingerprint(_build_layering(protocol, model, n))


def _layering_names(protocol: str, n: int) -> frozenset:
    from repro.analysis.impossibility import standard_layering_classes
    from repro.protocols.registry import PROTOCOLS

    try:
        return frozenset(standard_layering_classes(PROTOCOLS[protocol](n)))
    except TypeError as exc:  # protocol fits no layering interface
        raise InvalidJob(str(exc)) from None


def load_engine() -> None:
    """Import every module a refute job runs on.

    The server calls this before it forks its pool workers, so a worker
    imports nothing for its first job (DESIGN.md, "Layers")."""
    from repro.analysis.impossibility import standard_layering_classes
    from repro.core import cache, contracts  # noqa: F401  (used by check_all)
    from repro.protocols.registry import PROTOCOLS

    for factory in PROTOCOLS.values():
        standard_layering_classes(factory(2))


def _verdict_record(spec: JobSpec, report) -> dict:
    """The JSON-safe verdict body stored for a conclusive refute job.

    Only deterministic fields go in — no wall-clock budget stats — so an
    interrupted-and-resumed run stores bytes identical to an
    uninterrupted one.
    """
    return {
        "verdict": report.verdict.value,
        "detail": report.detail,
        "inputs": list(report.inputs) if report.inputs is not None else None,
        "states_explored": report.states_explored,
        "schedule_length": (
            len(report.execution.actions)
            if report.execution is not None
            else None
        ),
    }


def run_job(payload: dict) -> dict:
    """Pool unit function: execute one job and return its result dict.

    *payload* is ``{"job": <canonical spec>, "budget": {...}}`` — plain
    picklable data, rebuilt here so the function works identically
    in-process and across the pool's process boundary.

    The result is ``{"conclusive": bool, "record": {...}}``; only
    conclusive results are eligible for the verdict store.
    """
    spec = JobSpec.from_dict(payload["job"])
    if spec.kind == KIND_PROBE:
        digest = spec.value.encode("utf-8", "surrogateescape")
        for _ in range(spec.work):
            digest = hashlib.sha256(digest).digest()
        return {
            "conclusive": True,
            "cost": spec.work,
            "record": {
                "verdict": "probe",
                "digest": digest.hex(),
                "work": spec.work,
            },
        }
    from repro.core.checker import ConsensusChecker

    limits = payload.get("budget") or {}
    budget = Budget(
        max_states=limits.get("max_states"),
        max_seconds=limits.get("max_seconds"),
    )
    layering = spec._layering()
    report = ConsensusChecker(layering, budget).check_all(layering.model)
    if report.inconclusive:
        limit = (
            report.budget_stats.limit
            if report.budget_stats is not None
            else "budget"
        )
        return {
            "conclusive": False,
            "cost": report.states_explored,
            "limit": limit,
            "detail": report.detail,
        }
    return {
        "conclusive": True,
        "cost": report.states_explored,
        "record": _verdict_record(spec, report),
    }
