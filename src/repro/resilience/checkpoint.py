"""Checkpoint/resume for exhaustive searches.

A budget-exhausted search is not wasted work: the consensus checker
serializes its exploration state — the visited set with BFS parent
pointers, the unexplored frontier, the explicit edge lists needed for the
lasso analysis — into an :class:`ExplorationCheckpoint` that can be saved
to disk and handed back later to resume *exactly* where it stopped.  The
BFS is deterministic (successor order is deterministic and no randomness
is involved), so an interrupted-then-resumed run reaches a verdict
identical to an uninterrupted one; the tests assert this per model
family.

Three granularities nest:

* :class:`ExplorationCheckpoint` — one BFS over one input assignment
  (``ConsensusChecker.check``);
* :class:`CheckAllCheckpoint` — the input-assignment sweep of
  ``ConsensusChecker.check_all``: a deterministic cursor into the
  assignment enumeration plus the in-flight assignment's checkpoint;
* :class:`CampaignCheckpoint` — a CLI-level campaign over many
  (protocol, model) units: completed units keep their finished reports,
  the in-flight unit keeps its ``CheckAllCheckpoint``.

Serialization uses :mod:`pickle` wrapped in a small versioned envelope
(:func:`save_checkpoint` / :func:`load_checkpoint`).  Global states are
frozen dataclasses over tuples/frozensets, so pickling round-trips
equality — which is all resumption needs.  A textual *fingerprint* of the
system under analysis is stored and re-checked on resume so a checkpoint
cannot silently be replayed against a different protocol or model.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from repro.resilience.crashpoint import crashpoint

_FORMAT = "repro-checkpoint"
_VERSION = 1


class CheckpointMismatch(ValueError):
    """Raised when a checkpoint does not match the system being resumed."""


class CheckpointCorrupt(CheckpointMismatch):
    """Raised when a checkpoint file exists but cannot be decoded.

    A subclass of :class:`CheckpointMismatch` so existing handlers (the
    CLI's resume path exits 2 on mismatch) cover corruption too — but
    distinguishable for callers that want to, say, delete the file.
    """


def system_fingerprint(system) -> str:
    """A textual identity of a system, stored in checkpoints.

    Combines the system's class name, process count and (when reachable)
    the bound protocol's report name — enough to catch resuming against
    the wrong protocol/model pairing without serializing the objects.
    """
    # A memoizing wrapper (repro.core.cache.CachedSystem) is transparent:
    # cached and uncached runs of the same system must produce
    # interchangeable checkpoints, so fingerprint what it wraps.
    system = getattr(system, "uncached", system)
    parts = [type(system).__name__]
    n = getattr(system, "n", None)
    if n is not None:
        parts.append(f"n={n}")
    model = getattr(system, "model", None)
    protocol = getattr(model, "protocol", None) or getattr(
        system, "protocol", None
    )
    if protocol is not None and hasattr(protocol, "name"):
        parts.append(protocol.name())
    return "/".join(str(p) for p in parts)


@dataclass
class ExplorationCheckpoint:
    """A resumable snapshot of one consensus-check BFS.

    Attributes:
        fingerprint: :func:`system_fingerprint` of the system explored.
        inputs: the input assignment being checked.
        parent: BFS parent pointers, ``{state: (pred, action) | None}`` —
            doubles as the visited set.
        queue: the unexplored frontier, in deterministic BFS order.
        terminal: states where all non-failed processes have decided.
        edges: explicit successor lists of fully-processed states (the
            lasso analysis needs them after the BFS completes).
        limit: which budget limit stopped the run that produced this.
        states_seen: ``len(parent)`` at save time, for reporting.
    """

    fingerprint: str
    inputs: tuple
    parent: dict
    queue: list
    terminal: set
    edges: dict
    limit: Optional[str] = None
    states_seen: int = 0

    def validate_for(self, system, inputs: tuple) -> None:
        """Raise :class:`CheckpointMismatch` unless this checkpoint
        belongs to the given system and input assignment."""
        fp = system_fingerprint(system)
        if fp != self.fingerprint:
            raise CheckpointMismatch(
                f"checkpoint was taken on {self.fingerprint!r}, "
                f"cannot resume on {fp!r}"
            )
        if tuple(inputs) != tuple(self.inputs):
            raise CheckpointMismatch(
                f"checkpoint covers inputs {self.inputs!r}, "
                f"cannot resume inputs {tuple(inputs)!r}"
            )


@dataclass
class CheckAllCheckpoint:
    """A resumable cursor into a ``check_all`` input-assignment sweep.

    The assignment enumeration (``product(value_domain, repeat=n)``) is
    deterministic, so an integer index is a complete cursor.
    """

    fingerprint: str
    n: int
    value_domain: tuple
    assignment_index: int
    states_total: int
    inner: Optional[ExplorationCheckpoint] = None

    def validate_for(self, system, n: int, value_domain: tuple) -> None:
        """Raise :class:`CheckpointMismatch` unless this sweep checkpoint
        matches the system, process count and value domain."""
        fp = system_fingerprint(system)
        if fp != self.fingerprint:
            raise CheckpointMismatch(
                f"checkpoint was taken on {self.fingerprint!r}, "
                f"cannot resume on {fp!r}"
            )
        if n != self.n or tuple(value_domain) != tuple(self.value_domain):
            raise CheckpointMismatch(
                "checkpoint sweep parameters differ: "
                f"saved (n={self.n}, domain={self.value_domain!r}), "
                f"resuming (n={n}, domain={tuple(value_domain)!r})"
            )


@dataclass
class CampaignCheckpoint:
    """Progress of a multi-unit verification campaign (CLI level).

    A *unit* is one ``check_all`` over one (protocol, model) pairing,
    identified by a stable string key.  Completed units keep their full
    :class:`~repro.core.checker.ConsensusReport` (reports are picklable,
    witnesses included), so resuming replays them instantly; the
    in-flight unit keeps its :class:`CheckAllCheckpoint`.
    """

    completed: dict = field(default_factory=dict)
    current: Optional[str] = None
    inner: Optional[CheckAllCheckpoint] = None

    def report_for(self, key: str):
        """The finished report for *key*, or None if not completed."""
        return self.completed.get(key)

    def record(self, key: str, report) -> None:
        """Mark *key* finished with its report; clear in-flight state."""
        self.completed[key] = report
        if self.current == key:
            self.current = None
            self.inner = None

    def suspend(self, key: str, inner: Optional[CheckAllCheckpoint]) -> None:
        """Mark *key* as the in-flight unit with its partial progress."""
        self.current = key
        self.inner = inner

    def resume_point(self, key: str) -> Optional[CheckAllCheckpoint]:
        """The partial progress for *key* if it is the in-flight unit."""
        return self.inner if key == self.current else None


def _fsync_directory(directory: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic with respect to *crashes of
    this process*, but the new directory entry itself lives in the
    directory inode — until that is flushed, a power failure can roll
    the rename back (leaving the old file, or on a fresh path, nothing).
    Platforms whose filesystems cannot open directories (e.g. Windows)
    skip silently: the rename atomicity is unaffected, only the
    power-failure window stays.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_checkpoint(checkpoint, path) -> None:
    """Serialize any checkpoint object to *path* — atomically and durably.

    The envelope is written to a temporary file in the *same directory*,
    fsynced, :func:`os.replace`'d over the target, and the directory is
    fsynced, so a crash (or SIGKILL, or power failure) mid-write leaves
    either the previous checkpoint or the new one — never a torn file,
    and never a rename that evaporates with the directory cache.
    """
    envelope = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": type(checkpoint).__name__,
        "checkpoint": checkpoint,
    }
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    crashpoint("checkpoint.write.pre")
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        crashpoint("checkpoint.rename.pre")
        os.replace(tmp_path, path)
        crashpoint("checkpoint.rename.post")
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path):
    """Load a checkpoint — journaled or legacy whole-file format.

    Journal files (:mod:`repro.resilience.journal` magic) are loaded
    through the journal's heal-and-replay path and return the replayed
    :class:`CampaignCheckpoint`.  Legacy pickle envelopes load exactly
    as before, so checkpoints written by any prior version keep working.

    Raises :class:`CheckpointCorrupt` (a :class:`CheckpointMismatch`)
    with a clean diagnostic — no raw pickle traceback — when the file is
    truncated, garbage, or references classes this version no longer
    defines; :exc:`OSError` passes through for missing/unreadable files.
    """
    from repro.resilience import journal

    if journal.is_journal(path):
        state, _ = journal.load_journal(path, heal=True)
        return state
    with open(path, "rb") as fh:
        try:
            envelope = pickle.load(fh)
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            MemoryError,
            UnicodeDecodeError,
            ValueError,
        ) as exc:
            raise CheckpointCorrupt(
                f"{path}: corrupted checkpoint file "
                f"({type(exc).__name__}: {exc}); delete it and restart "
                "the run from scratch"
            ) from None
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != _FORMAT
    ):
        raise CheckpointMismatch(f"{path}: not a repro checkpoint file")
    if envelope.get("version") != _VERSION:
        raise CheckpointMismatch(
            f"{path}: unsupported checkpoint version "
            f"{envelope.get('version')!r}"
        )
    return envelope["checkpoint"]
