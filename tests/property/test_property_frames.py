"""Fuzzing the one reader of durable files: journal and verdict store.

Both files open through :class:`repro.resilience.frames.FramedFile`.
Whatever bytes are on disk, opening one either yields a prefix of the
records written to it or raises the file's own corrupt error
(:class:`CheckpointCorrupt`, :class:`StoreCorrupt`): never another
exception, and never a record that was not written.  When the open
succeeds (healing a torn tail on the way), the file takes an append and
reloads with it.

The inputs are (a) arbitrary bytes after the magic, (b) truncations and
byte flips of a valid file, and (c) CRC-valid frames with arbitrary
payloads: random bytes, one-byte changes of a valid payload, and JSON
nested past the parser's recursion limit.  A frame of (c) that still
decodes to a well-formed record *was* written; the expected records
then include it, decoded here with ``pickle``/``json`` directly.
"""

import contextlib
import json
import os
import pickle
import resource
import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.resilience.checkpoint import CheckpointCorrupt
from repro.resilience.frames import encode_frame
from repro.resilience.journal import MAGIC as JOURNAL_MAGIC
from repro.resilience.journal import CampaignJournal, load_journal
from repro.serve.jobs import canonical_json
from repro.serve.store import MAGIC as STORE_MAGIC
from repro.serve.store import StoreCorrupt, VerdictStore

EXAMPLES = 50

#: Written records: unique keys, small values.
RECORDS = st.lists(
    st.tuples(st.text("abc", min_size=1, max_size=3), st.text(max_size=4)),
    max_size=4,
    unique_by=lambda record: record[0],
)

#: A key no generated record uses, for the append after a heal.
NEW = ("new!", "appended")


class _Journal:
    """The campaign journal: records are completed ``(key, report)``."""

    magic = JOURNAL_MAGIC
    corrupt = CheckpointCorrupt

    @staticmethod
    def write(path, records):
        journal = CampaignJournal.create(path, checkpoint_interval=1000)
        for key, value in records:
            journal.record(key, value)
        journal.close()

    @staticmethod
    def payload(key, value):
        return pickle.dumps(("unit", (key, value)), protocol=5)

    @staticmethod
    def load(path):
        return list(load_journal(path)[0].completed.items())

    @staticmethod
    def append(path, key, value):
        journal = CampaignJournal.resume(path)
        journal.record(key, value)
        journal.close()

    @staticmethod
    def oracle(payload):
        """The ``(key, report)`` a unit payload decodes to, or None."""
        try:
            kind, (key, value) = pickle.loads(payload)
            hash(key)
        except Exception:
            return None
        assume(kind != "base" and kind != "suspend")
        return (key, value) if kind == "unit" else None


class _Store:
    """The verdict store: records are ``(fingerprint, record)``."""

    magic = STORE_MAGIC
    corrupt = StoreCorrupt

    @staticmethod
    def write(path, records):
        with VerdictStore(path) as store:
            for key, value in records:
                store.put(key, {}, value)

    @staticmethod
    def payload(key, value):
        return canonical_json({"fingerprint": key, "job": {}, "record": value})

    @staticmethod
    def load(path):
        with VerdictStore(path) as store:
            return [(fp, store.get(fp)["record"]) for fp in store.fingerprints()]

    @staticmethod
    def append(path, key, value):
        with VerdictStore(path) as store:
            store.put(key, {}, value)

    @staticmethod
    def oracle(payload):
        """The ``(fingerprint, record)`` a payload decodes to, or None."""
        try:
            record = json.loads(payload)
        except Exception:
            return None
        if (
            isinstance(record, dict)
            and isinstance(record.get("fingerprint"), str)
            and "record" in record
        ):
            return record["fingerprint"], record["record"]
        return None


KINDS = st.sampled_from([_Journal, _Store])


@contextlib.contextmanager
def _scratch_file():
    """A fresh path, under an address-space cap: a damaged pickle can
    ask the unpickler for gigabytes (a huge memo index), and the cap
    turns that into the MemoryError the loader must report as
    corruption instead of into real memory use."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        with tempfile.TemporaryDirectory() as directory:
            yield os.path.join(directory, "durable.file")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _check_open(kind, path, expected):
    """Open *path*: a prefix of *expected*, or the kind's corrupt error;
    after a successful open the file takes an append and reloads."""
    try:
        loaded = kind.load(path)
    except kind.corrupt:
        return
    assert repr(loaded) == repr(expected[: len(loaded)])
    kind.append(path, *NEW)
    assert repr(kind.load(path)) == repr(loaded + [NEW])


@settings(max_examples=EXAMPLES, deadline=None)
@given(kind=KINDS, junk=st.binary(max_size=64))
def test_arbitrary_bytes_after_the_magic(kind, junk):
    with _scratch_file() as path:
        with open(path, "wb") as fh:
            fh.write(kind.magic + junk)
        _check_open(kind, path, [])


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    kind=KINDS,
    records=RECORDS,
    cut=st.floats(0, 1),
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(1, 255)), max_size=3
    ),
)
def test_truncations_and_flips_of_a_valid_file(kind, records, cut, flips):
    with _scratch_file() as path:
        kind.write(path, records)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob = blob[: round(cut * len(blob))]
        for where, mask in flips:
            if blob:
                blob[min(int(where * len(blob)), len(blob) - 1)] ^= mask
        with open(path, "wb") as fh:
            fh.write(blob)
        _check_open(kind, path, records)


def _changed(payload: bytes, offset: int, new: bytes) -> bytes:
    """*payload* with the bytes at *offset* overwritten by *new*."""
    return payload[:offset] + new + payload[offset + len(new):]


def _damaged_payload(draw, kind):
    """A payload that is random, a valid one with a few bytes changed,
    or JSON nested deeper than the parser's recursion limit.  The valid
    one's key is outside the records' alphabet, so a few changed bytes
    cannot make it a written key."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return draw(st.binary(max_size=64))
    if choice == 1:
        payload = kind.payload("zzz", "v")
        offset = draw(st.integers(0, len(payload) - 1))
        return _changed(payload, offset, draw(st.binary(min_size=1, max_size=4)))
    depth = draw(st.integers(1, 200_000))
    return b"[" * depth + b"]" * depth


@st.composite
def _framed_junk(draw):
    kind = draw(KINDS)
    records = draw(RECORDS)
    return kind, records, _damaged_payload(draw, kind)


@settings(max_examples=EXAMPLES, deadline=None)
@given(case=_framed_junk())
# Regressions: changed pickle bytes that make the unpickler raise
# OverflowError and TypeError, and JSON that makes the parser raise
# RecursionError.
@example(case=(_Journal, [], _changed(_Journal.payload("a", "ra"), 10, b"\x80")))
@example(case=(_Journal, [], _changed(_Journal.payload("a", "ra"), 21, b"R")))
@example(case=(_Store, [], b"[" * 100_000 + b"]" * 100_000))
def test_crc_valid_frames_with_arbitrary_payloads(case):
    kind, records, junk = case
    extra = kind.oracle(junk)
    if extra is not None:
        assume(extra[0] not in dict(records))
    with _scratch_file() as path:
        with open(path, "wb") as fh:
            fh.write(kind.magic)
            for key, value in records:
                fh.write(encode_frame(kind.payload(key, value)))
            fh.write(encode_frame(junk))
        if extra is None:
            try:
                kind.load(path)
            except kind.corrupt:
                return
            raise AssertionError("an undecodable frame was accepted")
        _check_open(kind, path, records + [extra])
