"""Journaled incremental campaign checkpoints (append-only, CRC-framed).

The original :func:`~repro.resilience.checkpoint.save_checkpoint` flow
rewrote the *whole* campaign pickle on every save — O(campaign) bytes
per completed unit, which makes fine-grained checkpointing (and the
chaos harness's per-crashpoint resume sweeps) needlessly expensive.
This module replaces the rewrite with a **journal**:

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
  the journal is rewritten as a single fresh ``base`` snapshot via the
  same atomic temp-file/rename/dir-fsync dance the legacy writer uses,
  so the file stays O(campaign state), not O(campaign history).

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
*load → heal torn tail → replay → (eventually) compact*.

:class:`CampaignJournal` subclasses ``CampaignCheckpoint`` so the
campaign engines (:func:`repro.core.checker.run_campaign`, the analysis
drivers, the CLI) need no new call sites: ``record``/``suspend``
transparently append.  Fingerprint validation is unchanged — it lives
in the inner checkpoints, which travel through the journal intact.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.resilience.chaos import crashpoint
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointCorrupt,
    _fsync_directory,
)
from repro.resilience.frames import (
    FRAME_HEADER,
    FRAME_MAGIC,
    append_frame,
    scan_frames,
)

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


class _CountingWriter:
    """Forwards writes to *fh*, keeping their total length and crc32."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.length = 0
        self.crc = 0

    def write(self, data) -> int:
        self.length += memoryview(data).nbytes
        self.crc = zlib.crc32(data, self.crc)
        return self.fh.write(data)


def _write_frame(fh, kind: str, data) -> None:
    """Write one journal frame for ``(kind, data)`` to the seekable *fh*.

    The pickle streams straight into the file and the header is filled
    in afterwards, so a base snapshot of a large ledger never exists as
    one payload buffer in memory: compaction's transient memory stays
    flat as the ledger grows.
    """
    start = fh.tell()
    fh.write(bytes(FRAME_HEADER.size))
    out = _CountingWriter(fh)
    pickle.dump((kind, data), out, protocol=pickle.HIGHEST_PROTOCOL)
    end = fh.tell()
    fh.seek(start)
    fh.write(FRAME_HEADER.pack(FRAME_MAGIC, out.length, out.crc))
    fh.seek(end)


def _scan(raw: bytes, path: str):
    """Decode journal records out of the byte body after the magic.

    The byte-level framing (and the torn-tail rule: a bad frame is
    always the tail, because frames are strictly append-only) lives in
    :func:`repro.resilience.frames.scan_frames`; this layer decodes each
    intact payload as a pickled ``(kind, data)`` record.  Returns
    ``(records, good_end)``.
    """
    payloads, good_end = scan_frames(raw)
    records = []
    for payload in payloads:
        try:
            record = pickle.loads(payload)
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
            # The frame round-tripped its CRC but the payload does not
            # decode (e.g. a class this version no longer defines).
            # That is corruption of the *campaign*, not a torn tail —
            # healing would silently drop committed work.
            raise CheckpointCorrupt(
                f"{path}: journal record {len(records)} is undecodable "
                f"({type(exc).__name__}: {exc}); delete the file and "
                "restart the run from scratch"
            ) from None
        if (
            not isinstance(record, tuple)
            or len(record) != 2
            or record[0] not in (KIND_BASE, KIND_UNIT, KIND_SUSPEND)
        ):
            raise CheckpointCorrupt(
                f"{path}: journal record {len(records)} has unknown "
                f"shape {type(record).__name__}; delete the file and "
                "restart the run from scratch"
            )
        records.append(record)
    return records, good_end


def _replay(records) -> CampaignCheckpoint:
    state = CampaignCheckpoint()
    for kind, data in records:
        if kind == KIND_BASE:
            state = CampaignCheckpoint(
                completed=dict(data.completed),
                current=data.current,
                inner=data.inner,
            )
        elif kind == KIND_UNIT:
            key, report = data
            state.record(key, report)
        elif kind == KIND_SUSPEND:
            key, inner = data
            state.suspend(key, inner)
    return state


def load_journal(
    path, heal: bool = True
) -> tuple[CampaignCheckpoint, JournalInfo]:
    """Load a journal: verify frames, heal a torn tail, replay.

    Raises :class:`~repro.resilience.checkpoint.CheckpointCorrupt` when
    the file is not a journal or an *interior* record is undecodable;
    a torn **tail** (the expected signature of dying mid-append) is
    truncated away in place when *heal* is set, and silently skipped
    otherwise.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise CheckpointCorrupt(
            f"{path}: not a repro checkpoint journal (bad magic)"
        )
    body = blob[len(MAGIC) :]
    records, good_end = _scan(body, path)
    torn = len(body) - good_end
    if torn and heal:
        with open(path, "rb+") as fh:
            fh.truncate(len(MAGIC) + good_end)
            fh.flush()
            os.fsync(fh.fileno())
    return _replay(records), JournalInfo(
        records=len(records), healed_bytes=torn, path=path
    )


class CampaignJournal(CampaignCheckpoint):
    """A :class:`CampaignCheckpoint` that persists itself incrementally.

    ``record``/``suspend`` append one frame each; *checkpoint_interval*
    sets the fsync cadence for unit records (1 = every unit is durable
    the moment it completes; N batches the fsync, trading at most N-1
    re-runnable units for fewer disk flushes).  ``suspend`` and
    compaction always fsync — partial-progress snapshots are the
    expensive thing to lose.

    Construct with :meth:`create` (fresh file) or :meth:`resume`
    (load + heal + continue appending).
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
        self._fh: Optional[io.BufferedWriter] = None
        self._unsynced_units = 0
        self._records_since_base = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls, path, checkpoint_interval: int = 1, compact_every: int = 64
    ) -> "CampaignJournal":
        """Start a fresh journal at *path* (truncating any previous one)."""
        journal = cls(path, checkpoint_interval, compact_every)
        journal._fh = open(journal.path, "wb")
        journal._fh.write(MAGIC)
        # Flush before the first append's crashpoints: a kill inside
        # _append must leave a valid (if empty) journal, not the bare
        # zero-byte file open("wb") created.
        journal._fh.flush()
        journal._append(KIND_BASE, journal.snapshot(), durable=True)
        return journal

    @classmethod
    def resume(
        cls, path, checkpoint_interval: int = 1, compact_every: int = 64
    ) -> "CampaignJournal":
        """Load (healing a torn tail) and continue appending to *path*."""
        journal = cls(path, checkpoint_interval, compact_every)
        state, info = load_journal(path, heal=True)
        journal.completed = state.completed
        journal.current = state.current
        journal.inner = state.inner
        journal.load_info = info
        journal._records_since_base = max(0, info.records - 1)
        journal._fh = open(journal.path, "ab")
        return journal

    @classmethod
    def adopt(
        cls,
        path,
        state: CampaignCheckpoint,
        checkpoint_interval: int = 1,
        compact_every: int = 64,
    ) -> "CampaignJournal":
        """Migrate an in-memory campaign (e.g. a legacy-format load)
        into a fresh journal at *path*."""
        journal = cls(path, checkpoint_interval, compact_every)
        journal.completed = dict(state.completed)
        journal.current = state.current
        journal.inner = state.inner
        journal._fh = open(journal.path, "wb")
        journal._fh.write(MAGIC)
        journal._fh.flush()
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
        fh = self._fh
        if fh is None or fh.closed:
            self._fh = fh = open(self.path, "ab")
        sync_now = durable
        if not sync_now and kind == KIND_UNIT:
            self._unsynced_units += 1
            if self._unsynced_units >= self.checkpoint_interval:
                sync_now = True
        payload = pickle.dumps(
            (kind, data), protocol=pickle.HIGHEST_PROTOCOL
        )
        append_frame(
            fh, payload, crash_prefix="journal.append", durable=sync_now
        )
        if sync_now:
            self._unsynced_units = 0
        if kind != KIND_BASE:
            self._records_since_base += 1
            if self._records_since_base >= self.compact_every:
                self.compact()

    def sync(self) -> None:
        """Flush and fsync any buffered frames."""
        fh = self._fh
        if fh is not None and not fh.closed:
            fh.flush()
            os.fsync(fh.fileno())
            self._unsynced_units = 0

    def compact(self) -> None:
        """Rewrite the journal as a single fresh base snapshot.

        The same crash-safe sequence as the legacy whole-file writer:
        temp file in the same directory, fsync, atomic rename, directory
        fsync — interruptible at any point without losing the previous
        journal.
        """
        crashpoint("journal.compact.pre")
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "wb") as tmp:
                tmp.write(MAGIC)
                # A view, not snapshot(): no copy of the ledger.
                _write_frame(tmp, KIND_BASE, CampaignCheckpoint(
                    completed=self.completed,
                    current=self.current,
                    inner=self.inner,
                ))
                tmp.flush()
                os.fsync(tmp.fileno())
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            crashpoint("journal.compact.rename.pre")
            os.replace(tmp_path, self.path)
            _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        finally:
            if self._fh is None or self._fh.closed:
                self._fh = open(self.path, "ab")
        self._records_since_base = 0
        self._unsynced_units = 0
        crashpoint("journal.compact.post")

    def close(self) -> None:
        """Sync and release the file handle (the journal stays loadable)."""
        fh = self._fh
        if fh is not None and not fh.closed:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()

    # A journal that crosses a process boundary (or is handed to the
    # legacy whole-file writer) degrades to its plain snapshot: the file
    # handle is process-local, the state is what matters.
    def __reduce__(self):
        snap = self.snapshot()
        return (
            _rebuild_snapshot,
            (snap.completed, snap.current, snap.inner),
        )


def _rebuild_snapshot(completed, current, inner) -> CampaignCheckpoint:
    return CampaignCheckpoint(completed=completed, current=current, inner=inner)
