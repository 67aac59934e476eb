"""The content-addressed verdict store.

Completed conclusive verdicts persist here so they survive ``kill -9``
and repeat queries are O(1).  The file reuses the journal's CRC-framed
append-only format (:mod:`repro.resilience.frames`) with its own magic;
each frame's payload is one canonical-JSON record::

    {"fingerprint": <job fingerprint>, "job": <canonical spec>,
     "record": <verdict body>}

Canonical JSON (sorted keys, no whitespace, ASCII) makes stored bytes a
pure function of the verdict content — the chaos harness byte-compares
records across kill/restart cycles to prove recovery reruns produce
*identical* results, not merely equivalent ones.

Recovery semantics on open mirror the journal's:

* missing or zero-byte file — a fresh store (created with its magic);
* a torn tail (partial frame from a crash mid-append) — healed by
  truncating to the last intact frame;
* anything else that does not parse — a corrupt *interior*, refused
  with :class:`StoreCorrupt` naming the file and the reason.  Append-only
  files do not corrupt interior bytes by crashing; something else broke
  and silently dropping records would be worse.

Appends are fsync'd before :meth:`VerdictStore.put` returns, so the
server may acknowledge a verdict as durable the moment the call
completes.  ``put`` is idempotent by fingerprint, which combined with
the server ledger's recovery rule gives exactly-once storage.

Long-lived servers GC through :meth:`VerdictStore.compact`: an atomic
whole-file rewrite (tmp + fsync + rename + directory fsync, the same
shape as the journal's compaction) keeping the newest *retain* records.
The rewrite seams carry ``serve.store.compact.*`` crashpoints — a crash
at any of them leaves either the complete old file or the complete new
file, never a hybrid.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.resilience.checkpoint import _fsync_directory
from repro.resilience.crashpoint import crashpoint
from repro.resilience.frames import (
    append_frame,
    encode_frame,
    heal_tail,
    read_frames,
)
from repro.serve.jobs import canonical_json

__all__ = ["MAGIC", "StoreCorrupt", "StoreInfo", "VerdictStore"]

MAGIC = b"RVSTR001\n"


class StoreCorrupt(RuntimeError):
    """The verdict store's interior failed validation.

    Raised only for damage that healing cannot explain (bad magic, a
    CRC-valid frame whose payload is not a well-formed record, or two
    frames claiming one fingerprint).  Torn tails are healed silently.
    """


@dataclass(frozen=True)
class StoreInfo:
    """What opening a store found: intact records and healed damage."""

    records: int
    healed_bytes: int
    path: str


class VerdictStore:
    """Append-only fingerprint-addressed verdict persistence.

    The whole index lives in memory (fingerprint → raw payload bytes);
    lookups never touch the disk, appends are one framed write + fsync.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._index: dict[str, bytes] = {}
        self._fh = None
        self.load_info = self._open()

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> StoreInfo:
        fresh = (
            not os.path.exists(self.path)
            or os.path.getsize(self.path) == 0
        )
        if fresh:
            with open(self.path, "wb") as fh:
                fh.write(MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh = open(self.path, "ab")
            return StoreInfo(records=0, healed_bytes=0, path=self.path)
        try:
            payloads, torn, good_size = read_frames(self.path, MAGIC)
        except ValueError as exc:
            raise StoreCorrupt(str(exc)) from None
        for payload in payloads:
            fp = self._decode(payload)
            if fp in self._index:
                raise StoreCorrupt(
                    f"{self.path}: fingerprint {fp} stored twice — "
                    "append-only invariant violated"
                )
            self._index[fp] = payload
        if torn:
            heal_tail(self.path, good_size)
        self._fh = open(self.path, "ab")
        return StoreInfo(
            records=len(payloads), healed_bytes=torn, path=self.path
        )

    def _decode(self, payload: bytes) -> str:
        try:
            record = json.loads(payload)
        except ValueError:
            raise StoreCorrupt(
                f"{self.path}: frame payload is not valid JSON"
            ) from None
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("fingerprint"), str)
            or "record" not in record
        ):
            raise StoreCorrupt(
                f"{self.path}: frame payload is not a verdict record"
            )
        return record["fingerprint"]

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._index

    def fingerprints(self) -> list[str]:
        """Stored fingerprints in append order."""
        return list(self._index)

    def get(self, fingerprint: str) -> Optional[dict]:
        """The decoded record for *fingerprint*, or None."""
        payload = self._index.get(fingerprint)
        return None if payload is None else json.loads(payload)

    def record_bytes(self, fingerprint: str) -> Optional[bytes]:
        """The exact stored payload bytes (for byte-identity checks)."""
        return self._index.get(fingerprint)

    # -- appends -----------------------------------------------------------
    def put(self, fingerprint: str, job: dict, record: dict) -> bool:
        """Durably store one verdict; no-op if the fingerprint exists.

        Returns True when a record was appended.  The frame is fsync'd
        before returning — callers may treat completion as durable —
        and the write is bracketed by the ``serve.store.append.*``
        crashpoints so chaos sweeps can kill the server inside it.
        """
        if fingerprint in self._index:
            return False
        payload = canonical_json(
            {"fingerprint": fingerprint, "job": job, "record": record}
        )
        fh = self._fh
        if fh is None or fh.closed:
            self._fh = fh = open(self.path, "ab")
        append_frame(
            fh, payload, crash_prefix="serve.store.append", durable=True
        )
        self._index[fingerprint] = payload
        return True

    # -- compaction / GC ----------------------------------------------------
    def compact(self, retain: Optional[int] = None) -> int:
        """Atomically rewrite the store, keeping the newest *retain*
        records (all of them when None — then compaction only squeezes
        out dead bytes, of which an append-only store has none, but the
        rewrite still refreshes the file).

        Returns the number of evicted records.  Crash-safe: the new
        file is fully written and fsync'd under a temporary name before
        an atomic rename, and the directory entry is fsync'd after —
        ``kill -9`` at any of the ``serve.store.compact.*`` crashpoints
        leaves a loadable store (old bytes or new bytes, never a mix).

        Evicting a verdict is a *cache* eviction, not a correctness
        event: the ledger's completion record survives, so a
        resubmitted job re-runs (and re-stores) instead of being
        answered from the store — exactly the dedupe-miss path.
        """
        crashpoint("serve.store.compact.pre")
        items = list(self._index.items())
        if retain is None or len(items) <= retain:
            kept = items
        else:
            kept = items[len(items) - retain:]
        evicted = len(items) - len(kept)
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".compact-",
            suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(MAGIC)
                for _fp, payload in kept:
                    out.write(encode_frame(payload))
                out.flush()
                os.fsync(out.fileno())
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            crashpoint("serve.store.compact.rename.pre")
            os.replace(tmp_path, self.path)
            _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._fh = open(self.path, "ab")
        self._index = dict(kept)
        crashpoint("serve.store.compact.post")
        return evicted
