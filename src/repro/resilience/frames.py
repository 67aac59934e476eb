"""CRC-framed append-only record files — the shared durability substrate.

Two persistent logs use the exact same byte framing: the campaign
checkpoint journal (:mod:`repro.resilience.journal`) and the job
server's content-addressed verdict store (:mod:`repro.serve.store`).
This module owns the framing so both get identical torn-tail semantics
from one implementation:

::

    magic   <file-specific, ends in b"\\n">          (file header)
    frame   b"RC" | len:u32be | crc32:u32be | payload[len]   (repeated)

Writers append whole frames; a crash (or ``kill -9``) mid-append leaves
a *torn tail* — a final frame whose header, length or CRC does not check
out.  :func:`scan_frames` stops at the first bad frame and reports the
offset just past the last intact one, so loaders can heal the file by
truncating the tail in place (:func:`heal_tail`): frames are written
strictly append-only, which makes everything after the first corruption
unreachable by any consistent reader.

What a payload *means* — pickle for the journal, canonical JSON for the
verdict store — stays with the caller; this layer only guarantees each
payload is delivered whole or not at all.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Optional

from repro.resilience.crashpoint import crashpoint, is_armed

__all__ = [
    "FRAME_HEADER",
    "FRAME_MAGIC",
    "MAX_PAYLOAD",
    "append_frame",
    "encode_frame",
    "heal_tail",
    "read_frames",
    "scan_frames",
]

FRAME_MAGIC = b"RC"
FRAME_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32

#: Sanity bound on one frame's payload, to reject garbage length fields
#: without attempting a multi-gigabyte read.
MAX_PAYLOAD = 1 << 31


def encode_frame(payload: bytes) -> bytes:
    """One complete frame (header + payload) for *payload* bytes."""
    return (
        FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload))
        + payload
    )


def scan_frames(raw: bytes) -> tuple[list[bytes], int]:
    """Parse intact frame payloads out of the byte body after the magic.

    Returns ``(payloads, good_end)`` where *good_end* is the offset
    (into *raw*) just past the last intact frame — anything beyond it is
    a torn tail.  A bad frame is always treated as the tail: frames are
    written strictly append-only, so bytes after the first corruption
    are unreachable by any consistent reader.
    """
    payloads: list[bytes] = []
    offset = 0
    while True:
        header = raw[offset : offset + FRAME_HEADER.size]
        if len(header) < FRAME_HEADER.size:
            break
        magic, length, crc = FRAME_HEADER.unpack(header)
        if magic != FRAME_MAGIC or length > MAX_PAYLOAD:
            break
        payload = raw[
            offset + FRAME_HEADER.size : offset + FRAME_HEADER.size + length
        ]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset += FRAME_HEADER.size + length
    return payloads, offset


def read_frames(path, magic: bytes) -> tuple[list[bytes], int, int]:
    """Read *path* and scan its frames.

    Returns ``(payloads, torn_bytes, good_size)`` where *torn_bytes*
    counts the bytes beyond the last intact frame and *good_size* is the
    file size a heal would truncate to.  Raises :class:`ValueError` when
    the file does not start with *magic* (callers wrap this in their own
    corruption exception) and :exc:`OSError` for unreadable files.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise ValueError(f"{path}: bad file magic")
    body = blob[len(magic) :]
    payloads, good_end = scan_frames(body)
    torn = len(body) - good_end
    return payloads, torn, len(magic) + good_end


def heal_tail(path, good_size: int) -> None:
    """Physically truncate a torn tail so future appends are well-formed."""
    with open(os.fspath(path), "rb+") as fh:
        fh.truncate(good_size)
        fh.flush()
        os.fsync(fh.fileno())


def append_frame(
    fh: BinaryIO,
    payload: bytes,
    crash_prefix: Optional[str] = None,
    durable: bool = False,
) -> None:
    """Append one frame to an open binary file handle.

    When *crash_prefix* is given, the chaos crashpoints
    ``{prefix}.pre`` / ``{prefix}.mid`` / ``{prefix}.post`` bracket the
    write, and under an armed chaos plan the bare header is flushed
    before the mid point so a kill there leaves a genuinely torn frame
    for the loader to heal (without chaos the frame is buffered whole
    and the extra flush would only cost syscalls).  *durable* adds an
    fsync before the post crashpoint.
    """
    if crash_prefix is not None:
        crashpoint(f"{crash_prefix}.pre")
    frame = encode_frame(payload)
    fh.write(frame[: FRAME_HEADER.size])
    if crash_prefix is not None:
        if is_armed():
            fh.flush()
        crashpoint(f"{crash_prefix}.mid")
    fh.write(frame[FRAME_HEADER.size :])
    fh.flush()
    if durable:
        os.fsync(fh.fileno())
    if crash_prefix is not None:
        crashpoint(f"{crash_prefix}.post")
