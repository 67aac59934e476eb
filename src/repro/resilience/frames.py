"""CRC-framed record files — the one durability layer.

Every durable file the package writes is a framed record file: the
campaign checkpoint journal and the job server's ledger
(:mod:`repro.resilience.journal`) and the server's verdict store
(:mod:`repro.serve.store`).  This module owns everything about such a
file except what its payloads mean — pickle for the journal, canonical
JSON for the verdict store::

    magic   <file-specific, ends in b"\\n">          (file header)
    frame   b"RC" | len:u32be | crc32:u32be | payload[len]   (repeated)

A :class:`FramedFile` does three things:

* **Open** (:meth:`FramedFile.load`).  A missing or zero-byte file
  becomes a fresh file holding only its magic.  Any other file must
  start with its magic; its intact frames are decoded in order, and a
  *torn tail* — a final frame whose header, length or CRC does not
  check out, the signature of ``kill -9`` mid-append — is truncated
  away in place.  Frames are written strictly append-only, so bytes
  after the first bad frame are unreachable by any consistent reader.
  A bad magic, or a CRC-valid payload that does not decode, is damage
  that no crash explains: it raises the file's own error type.
* **Append** (:meth:`FramedFile.append`): one whole frame, fsynced on
  request, bracketed by the ``{prefix}.pre``/``.mid``/``.post``
  crashpoints.
* **Atomic rewrite** (:meth:`FramedFile.rewrite`): the new contents go
  to a temporary file in the same directory, which is fsynced, renamed
  over the file, and the directory fsynced; a failure removes the
  temporary file.  The crashpoints ``{prefix}.pre``,
  ``{prefix}.rename.pre`` and ``{prefix}.post`` bracket it, and a kill
  at any point leaves the complete old file or the complete new one.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from typing import Any, BinaryIO, Callable, Optional, TypeVar

from repro.resilience.crashpoint import crashpoint, is_armed

__all__ = [
    "FRAME_HEADER",
    "FRAME_MAGIC",
    "MAX_PAYLOAD",
    "FramedFile",
    "encode_frame",
    "read_frames",
    "stream_frame",
]

FRAME_MAGIC = b"RC"
FRAME_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32

#: Sanity bound on one frame's payload, to reject garbage length fields
#: without attempting a multi-gigabyte read.
MAX_PAYLOAD = 1 << 31

T = TypeVar("T")


def encode_frame(payload: bytes) -> bytes:
    """One complete frame (header + payload) for *payload* bytes."""
    return (
        FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload))
        + payload
    )


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


def stream_frame(fh: BinaryIO, dump: Callable[[Any], None]) -> None:
    """Write one frame to the seekable *fh*, its payload written by
    ``dump(writer)``.

    The header is filled in afterwards, so a large payload (a base
    snapshot of a big ledger) never exists as one buffer in memory.
    """
    start = fh.tell()
    fh.write(bytes(FRAME_HEADER.size))
    out = _CountingWriter(fh)
    dump(out)
    end = fh.tell()
    fh.seek(start)
    fh.write(FRAME_HEADER.pack(FRAME_MAGIC, out.length, out.crc))
    fh.seek(end)


def read_frames(path, magic: bytes) -> tuple[list[bytes], int, int]:
    """Read *path* and parse its intact frame payloads.

    Returns ``(payloads, torn_bytes, good_size)`` where *torn_bytes*
    counts the bytes beyond the last intact frame and *good_size* is the
    file size a heal would truncate to.  Raises :class:`ValueError` when
    the file does not start with *magic* and :exc:`OSError` for
    unreadable files.  Reads only: the chaos oracle checks files with
    it without going through the classes it checks.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise ValueError(f"{path}: bad file magic")
    payloads: list[bytes] = []
    offset = len(magic)
    while True:
        header = blob[offset : offset + FRAME_HEADER.size]
        if len(header) < FRAME_HEADER.size:
            break
        frame_magic, length, crc = FRAME_HEADER.unpack(header)
        if frame_magic != FRAME_MAGIC or length > MAX_PAYLOAD:
            break
        start = offset + FRAME_HEADER.size
        payload = blob[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = start + length
    return payloads, len(blob) - offset, offset


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


class FramedFile:
    """One durable framed record file: open, append, atomic rewrite.

    *magic* tells this file's kind from every other framed file;
    *corrupt* is the exception type its damage raises, and *label*
    names the kind in that error's message.  The append handle opens
    on the first append and closes at :meth:`close` and before a
    rewrite's rename.
    """

    def __init__(
        self,
        path,
        magic: bytes,
        corrupt: type[Exception],
        label: str,
    ) -> None:
        self.path = os.fspath(path)
        self.magic = magic
        self.corrupt = corrupt
        self.label = label
        self._fh: Optional[BinaryIO] = None

    def create(self) -> None:
        """Start the file afresh: durably truncate it to its magic."""
        with open(self.path, "wb") as fh:
            fh.write(self.magic)
            fh.flush()
            os.fsync(fh.fileno())

    def load(self, decode: Callable[[bytes], T]) -> tuple[list[T], int]:
        """Open the file: create it, or read, verify and heal it.

        Returns ``(records, healed_bytes)``: ``decode(payload)`` of
        every intact frame in order, and the torn-tail bytes truncated
        away.  Raises *corrupt* on a bad magic and on any exception
        *decode* raises; :exc:`OSError` passes through.
        """
        try:
            fresh = os.path.getsize(self.path) == 0
        except FileNotFoundError:
            fresh = True
        if fresh:
            self.create()
            return [], 0
        try:
            payloads, torn, good_size = read_frames(self.path, self.magic)
        except ValueError:
            raise self.corrupt(
                f"{self.path}: corrupted {self.label}: bad magic; delete "
                "the file and start afresh"
            ) from None
        records: list[T] = []
        for payload in payloads:
            try:
                records.append(decode(payload))
            except Exception as exc:
                # The frame passed its CRC, so this is no torn tail:
                # healing it away would silently drop what follows.
                raise self.corrupt(
                    f"{self.path}: {self.label} record {len(records)} is "
                    f"undecodable ({type(exc).__name__}: {exc}); delete "
                    "the file and start afresh"
                ) from None
        if torn:
            with open(self.path, "rb+") as fh:
                fh.truncate(good_size)
                fh.flush()
                os.fsync(fh.fileno())
        return records, torn

    def append(
        self, payload: bytes, crash_prefix: str, durable: bool = False
    ) -> None:
        """Append one frame; *durable* fsyncs it before returning.

        Under an armed chaos plan the bare header is flushed before the
        ``{prefix}.mid`` crashpoint, so a kill there leaves a genuinely
        torn frame for :meth:`load` to heal (without chaos the frame is
        buffered whole and the extra flush would only cost syscalls).
        """
        if self._fh is None:
            self._fh = open(self.path, "ab")
        fh = self._fh
        crashpoint(f"{crash_prefix}.pre")
        frame = encode_frame(payload)
        fh.write(frame[: FRAME_HEADER.size])
        if is_armed():
            fh.flush()
        crashpoint(f"{crash_prefix}.mid")
        fh.write(frame[FRAME_HEADER.size :])
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
        crashpoint(f"{crash_prefix}.post")

    def rewrite(
        self,
        write_body: Callable[[BinaryIO], None],
        committed: Callable[[], None],
        crash_prefix: str,
    ) -> None:
        """Atomically replace the file by its magic plus the frames
        ``write_body(fh)`` writes.

        ``committed()`` runs once the new file is in place and before
        the ``{prefix}.post`` crashpoint, so the caller's in-memory
        state matches the file even if the process goes on past it.
        """
        crashpoint(f"{crash_prefix}.pre")
        directory = os.path.dirname(self.path) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".",
            suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(self.magic)
                write_body(out)
                out.flush()
                os.fsync(out.fileno())
            self.close()
            crashpoint(f"{crash_prefix}.rename.pre")
            os.replace(tmp_path, self.path)
            _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        committed()
        crashpoint(f"{crash_prefix}.post")

    def sync(self) -> None:
        """Flush and fsync frames appended since the last sync."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Release the append handle (without an fsync)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
