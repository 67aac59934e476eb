"""Journaled incremental campaign checkpoints (append-only, CRC-framed).

A campaign checkpoint is a **journal** rather than a whole-file
rewrite, so a save costs one small record, not O(campaign) bytes — which
makes fine-grained checkpointing (and the chaos harness's per-crashpoint
resume sweeps) cheap:

* an append-only file of CRC32-framed records — a ``base`` snapshot
  followed by one small ``unit`` record per finished verification unit
  (appended the moment the unit resolves, including from the pool's
  checkpoint-as-workers-finish hook) and ``suspend`` records carrying
  the in-flight unit's partial progress;
* **self-healing loads** — a crash (or ``kill -9``) mid-append leaves a
  torn final frame; the loader verifies each frame's length and CRC,
  truncates the torn tail in place, and replays the surviving prefix.
  Determinism of the engines guarantees re-running the lost suffix
  reproduces byte-identical verdicts;
* **periodic compaction** — once enough incremental records accumulate
  the journal is rewritten as a single fresh ``base`` snapshot by an
  atomic rewrite, so the file stays O(campaign state), not O(campaign
  history).

Opening, appending, healing and the atomic rewrite are the shared
framed-file layer's (:class:`repro.resilience.frames.FramedFile`); this
module keeps only the record codec and the replay.

On-disk format
--------------

::

    magic   b"RJRNL001\\n"                      (9 bytes, file header)
    frame   b"RC" | len:u32be | crc32:u32be | payload[len]   (repeated)

Each payload is a pickled ``(kind, data)`` pair with kinds ``"base"``
(a full :class:`~repro.resilience.checkpoint.CampaignCheckpoint`),
``"unit"`` (``(key, report)``) and ``"suspend"``
(``(key, CheckAllCheckpoint | None)``).  Replay starts from an empty
campaign, substitutes state wholesale at each ``base``, and applies
``unit``/``suspend`` records in order — the recovery state machine is
*load → heal torn tail → replay → (eventually) compact*.  A file that is
missing or zero bytes long opens as an empty campaign; a file with any
other magic (such as the pickle envelopes older versions wrote) or a
CRC-valid record that does not decode raises
:class:`~repro.resilience.checkpoint.CheckpointCorrupt`.

:class:`CampaignJournal` subclasses ``CampaignCheckpoint`` so the
campaign engines (:func:`repro.analysis.campaign.run_campaign`, the
analysis drivers, the CLI) need no new call sites: ``record``/``suspend``
transparently append.  Fingerprint validation is unchanged — it lives
in the inner checkpoints, which travel through the journal intact.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Optional

from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointCorrupt
from repro.resilience.frames import FramedFile, stream_frame

__all__ = [
    "CampaignJournal",
    "JournalInfo",
    "MAGIC",
    "is_journal",
    "load_journal",
]

MAGIC = b"RJRNL001\n"

KIND_BASE = "base"
KIND_UNIT = "unit"
KIND_SUSPEND = "suspend"


@dataclass(frozen=True)
class JournalInfo:
    """What a journal load found (and fixed)."""

    records: int
    healed_bytes: int
    path: str

    @property
    def healed(self) -> bool:
        return self.healed_bytes > 0


def is_journal(path) -> bool:
    """Whether *path* starts with the journal magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _framed(path) -> FramedFile:
    return FramedFile(path, MAGIC, CheckpointCorrupt, "checkpoint journal")


def _decode(payload: bytes) -> tuple:
    """One pickled ``(kind, data)`` record, checked so that its replay
    cannot fail: a base record becomes ``(completed, current, inner)``,
    a unit or suspend record a ``(hashable key, value)`` pair."""
    kind, data = pickle.loads(payload)
    if kind == KIND_BASE:
        return kind, (dict(data.completed), data.current, data.inner)
    if kind not in (KIND_UNIT, KIND_SUSPEND):
        raise ValueError(f"unknown record kind {kind!r}")
    key, value = data
    hash(key)
    return kind, (key, value)


def _replay(records) -> CampaignCheckpoint:
    state = CampaignCheckpoint()
    for kind, data in records:
        if kind == KIND_BASE:
            completed, current, inner = data
            state = CampaignCheckpoint(
                completed=completed, current=current, inner=inner
            )
        elif kind == KIND_UNIT:
            state.record(*data)
        else:
            state.suspend(*data)
    return state


def load_journal(path) -> tuple[CampaignCheckpoint, JournalInfo]:
    """Open a journal (healing a torn tail) and replay it.

    A missing or zero-byte *path* becomes an empty journal.  Raises
    :class:`~repro.resilience.checkpoint.CheckpointCorrupt` when the
    file is not a journal or a record is undecodable.
    """
    framed = _framed(path)
    records, torn = framed.load(_decode)
    return _replay(records), JournalInfo(
        records=len(records), healed_bytes=torn, path=framed.path
    )


class CampaignJournal(CampaignCheckpoint):
    """A :class:`CampaignCheckpoint` that persists itself incrementally.

    ``record``/``suspend`` append one frame each; *checkpoint_interval*
    sets the fsync cadence for unit records (1 = every unit is durable
    the moment it completes; N batches the fsync, trading at most N-1
    re-runnable units for fewer disk flushes).  ``suspend`` and
    compaction always fsync — partial-progress snapshots are the
    expensive thing to lose.

    Construct with :meth:`create` (fresh file), :meth:`adopt` (fresh
    file holding a given campaign) or :meth:`resume` (load + heal +
    continue appending).
    """

    def __init__(
        self,
        path,
        checkpoint_interval: int = 1,
        compact_every: int = 64,
    ) -> None:
        super().__init__()
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if compact_every < 2:
            raise ValueError("compact_every must be >= 2")
        self.path = os.fspath(path)
        self.checkpoint_interval = checkpoint_interval
        self.compact_every = compact_every
        self.load_info: Optional[JournalInfo] = None
        self._file = _framed(self.path)
        self._unsynced_units = 0
        self._records_since_base = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls, path, checkpoint_interval: int = 1, compact_every: int = 64
    ) -> "CampaignJournal":
        """Start a fresh journal at *path* (truncating any previous one)."""
        return cls.adopt(
            path, CampaignCheckpoint(), checkpoint_interval, compact_every
        )

    @classmethod
    def resume(
        cls, path, checkpoint_interval: int = 1, compact_every: int = 64
    ) -> "CampaignJournal":
        """Open *path* (see :func:`load_journal`) and continue appending."""
        journal = cls(path, checkpoint_interval, compact_every)
        state, info = load_journal(path)
        journal.completed = state.completed
        journal.current = state.current
        journal.inner = state.inner
        journal.load_info = info
        journal._records_since_base = max(0, info.records - 1)
        return journal

    @classmethod
    def adopt(
        cls,
        path,
        state: CampaignCheckpoint,
        checkpoint_interval: int = 1,
        compact_every: int = 64,
    ) -> "CampaignJournal":
        """Start a fresh journal at *path* (truncating any previous one)
        whose base record is *state*."""
        journal = cls(path, checkpoint_interval, compact_every)
        journal.completed = dict(state.completed)
        journal.current = state.current
        journal.inner = state.inner
        journal._file.create()
        journal._append(KIND_BASE, journal.snapshot(), durable=True)
        return journal

    # -- campaign interface (appends transparently) --------------------------
    def record(self, key: str, report) -> None:
        super().record(key, report)
        self._append(KIND_UNIT, (key, report))

    def suspend(self, key: str, inner) -> None:
        super().suspend(key, inner)
        self._append(KIND_SUSPEND, (key, inner), durable=True)

    # -- persistence ---------------------------------------------------------
    def snapshot(self) -> CampaignCheckpoint:
        """A plain (journal-less) copy of the current campaign state."""
        return CampaignCheckpoint(
            completed=dict(self.completed),
            current=self.current,
            inner=self.inner,
        )

    def _append(self, kind: str, data, durable: bool = False) -> None:
        sync_now = durable
        if not sync_now and kind == KIND_UNIT:
            self._unsynced_units += 1
            if self._unsynced_units >= self.checkpoint_interval:
                sync_now = True
        payload = pickle.dumps(
            (kind, data), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._file.append(payload, "journal.append", durable=sync_now)
        if sync_now:
            self._unsynced_units = 0
        if kind != KIND_BASE:
            self._records_since_base += 1
            if self._records_since_base >= self.compact_every:
                self.compact()

    def sync(self) -> None:
        """Flush and fsync any buffered frames."""
        self._file.sync()
        self._unsynced_units = 0

    def compact(self) -> None:
        """Atomically rewrite the journal as a single fresh base
        snapshot (crashpoints ``journal.compact.*``)."""
        # A view, not snapshot(): no copy of the ledger.
        base = (KIND_BASE, CampaignCheckpoint(
            completed=self.completed, current=self.current, inner=self.inner
        ))

        def rebased() -> None:
            self._records_since_base = 0
            self._unsynced_units = 0

        self._file.rewrite(
            lambda out: stream_frame(
                out,
                lambda w: pickle.dump(
                    base, w, protocol=pickle.HIGHEST_PROTOCOL
                ),
            ),
            rebased,
            "journal.compact",
        )

    def close(self) -> None:
        """Sync and release the file handle (the journal stays loadable)."""
        self._file.sync()
        self._file.close()

    # A journal that crosses a process boundary degrades to its plain
    # snapshot: the file handle is process-local, the state is what
    # matters.
    def __reduce__(self):
        snap = self.snapshot()
        return (
            _rebuild_snapshot,
            (snap.completed, snap.current, snap.inner),
        )


def _rebuild_snapshot(completed, current, inner) -> CampaignCheckpoint:
    return CampaignCheckpoint(completed=completed, current=current, inner=inner)
