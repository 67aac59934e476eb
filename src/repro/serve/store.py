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

Opening, appending and rewriting are the shared framed-file layer's
(:class:`repro.resilience.frames.FramedFile`), so recovery on open is
the journal's:

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

Long-lived servers GC through :meth:`VerdictStore.compact`: the
layer's atomic rewrite (tmp + fsync + rename + directory fsync, as for
the journal's compaction) keeping the newest *retain* records.
The rewrite seams carry ``serve.store.compact.*`` crashpoints — a crash
at any of them leaves either the complete old file or the complete new
file, never a hybrid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.resilience.frames import FramedFile, encode_frame
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


def _decode(payload: bytes) -> tuple[str, bytes]:
    """``(fingerprint, payload)`` of one canonical-JSON verdict record."""
    try:
        record = json.loads(payload)
    except ValueError:
        raise ValueError("frame payload is not valid JSON") from None
    if (
        not isinstance(record, dict)
        or not isinstance(record.get("fingerprint"), str)
        or "record" not in record
    ):
        raise ValueError("frame payload is not a verdict record")
    return record["fingerprint"], payload


class VerdictStore:
    """Append-only fingerprint-addressed verdict persistence.

    The whole index lives in memory (fingerprint → raw payload bytes);
    lookups never touch the disk, appends are one framed write + fsync.
    """

    def __init__(self, path) -> None:
        self._file = FramedFile(path, MAGIC, StoreCorrupt, "verdict store")
        self.path = self._file.path
        records, torn = self._file.load(_decode)
        self._index: dict[str, bytes] = {}
        for fp, payload in records:
            if fp in self._index:
                raise StoreCorrupt(
                    f"{self.path}: fingerprint {fp} stored twice — "
                    "append-only invariant violated"
                )
            self._index[fp] = payload
        self.load_info = StoreInfo(
            records=len(records), healed_bytes=torn, path=self.path
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._file.close()

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
        self._file.append(payload, "serve.store.append", durable=True)
        self._index[fingerprint] = payload
        return True

    # -- compaction / GC ----------------------------------------------------
    def compact(self, retain: Optional[int] = None) -> int:
        """Atomically rewrite the store, keeping the newest *retain*
        records (all of them when None — then compaction only squeezes
        out dead bytes, of which an append-only store has none, but the
        rewrite still refreshes the file).

        Returns the number of evicted records.  Crash-safe: ``kill -9``
        at any of the ``serve.store.compact.*`` crashpoints leaves a
        loadable store (old bytes or new bytes, never a mix).

        Evicting a verdict is a *cache* eviction, not a correctness
        event: the ledger's completion record survives, so a
        resubmitted job re-runs (and re-stores) instead of being
        answered from the store — exactly the dedupe-miss path.
        """
        items = list(self._index.items())
        if retain is not None:
            items = items[max(0, len(items) - retain):]
        evicted = len(self._index) - len(items)

        def kept() -> None:
            self._index = dict(items)

        self._file.rewrite(
            lambda out: out.writelines(encode_frame(p) for _, p in items),
            kept,
            "serve.store.compact",
        )
        return evicted
