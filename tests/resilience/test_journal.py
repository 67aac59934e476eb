"""The checkpoint journal: append, heal, replay, compact.

The core contract under test: *any* byte-level truncation of the tail
(the signature of ``kill -9`` mid-append) must load without error into a
prefix of the committed campaign, and loading must physically heal the
file so subsequent appends produce a well-formed journal again.
"""

import os
import pickle

import pytest

from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointCorrupt
from repro.resilience.frames import encode_frame
from repro.resilience.journal import (
    MAGIC,
    CampaignJournal,
    is_journal,
    load_journal,
)


def _encode_frame(kind, data):
    """One journal frame for a ``(kind, data)`` record, built by hand."""
    return encode_frame(
        pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    )


def _pickle_envelope(path, checkpoint):
    """A whole-file checkpoint in the pickle-envelope format that older
    versions wrote (and that no journal loader accepts)."""
    path.write_bytes(pickle.dumps({
        "format": "repro-checkpoint", "version": 1,
        "kind": type(checkpoint).__name__, "checkpoint": checkpoint,
    }))


def _journal_with_units(path, units, **kwargs):
    journal = CampaignJournal.create(path, **kwargs)
    for key, report in units:
        journal.record(key, report)
    journal.close()
    return journal


class TestRoundTrip:
    def test_records_replay(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        state, info = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}
        assert not info.healed
        assert info.records == 3  # base + 2 units

    def test_suspend_replays(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path)
        journal.record("a", "ra")
        journal.suspend("b", "partial-b")
        journal.close()
        state, _ = load_journal(path)
        assert state.completed == {"a": "ra"}
        assert state.current == "b"
        assert state.resume_point("b") == "partial-b"

    def test_is_journal(self, tmp_path):
        journal_path = tmp_path / "j.ckpt"
        _journal_with_units(journal_path, [])
        legacy_path = tmp_path / "legacy.ckpt"
        _pickle_envelope(legacy_path, CampaignCheckpoint())
        assert is_journal(journal_path)
        assert not is_journal(legacy_path)
        assert not is_journal(tmp_path / "missing.ckpt")

    def test_resume_continues_appending(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra")])
        journal = CampaignJournal.resume(path)
        assert journal.completed == {"a": "ra"}
        journal.record("b", "rb")
        journal.close()
        state, info = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}
        assert not info.healed

    def test_journal_pickles_as_plain_snapshot(self, tmp_path):
        journal = _journal_with_units(
            tmp_path / "campaign.journal", [("a", "ra")]
        )
        clone = pickle.loads(pickle.dumps(journal))
        assert type(clone) is CampaignCheckpoint
        assert clone.completed == {"a": "ra"}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignJournal(tmp_path / "j", checkpoint_interval=0)
        with pytest.raises(ValueError):
            CampaignJournal(tmp_path / "j", compact_every=1)


class TestTornTailHealing:
    def test_every_truncation_offset_heals(self, tmp_path):
        """Chop the journal at *every* byte offset: each load must
        succeed, yield a prefix of the committed units, and leave the
        file healed (a second load finds nothing to fix)."""
        path = tmp_path / "campaign.journal"
        units = [("a", "ra"), ("b", "rb"), ("c", "rc")]
        _journal_with_units(path, units)
        blob = path.read_bytes()
        prefixes = [{}, {"a": "ra"}, {"a": "ra", "b": "rb"},
                    {"a": "ra", "b": "rb", "c": "rc"}]
        for cut in range(len(MAGIC), len(blob) + 1):
            torn = tmp_path / f"torn-{cut}.journal"
            torn.write_bytes(blob[:cut])
            state, info = load_journal(torn)
            assert state.completed in prefixes, f"cut at {cut}"
            healed_state, healed_info = load_journal(torn)
            assert not healed_info.healed, f"cut at {cut} not healed"
            assert healed_state.completed == state.completed

    def test_healed_journal_accepts_new_records(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the final frame
        journal = CampaignJournal.resume(path)
        assert journal.load_info is not None and journal.load_info.healed
        assert journal.completed == {"a": "ra"}
        journal.record("b", "rb-rerun")
        journal.close()
        state, info = load_journal(path)
        assert not info.healed
        assert state.completed == {"a": "ra", "b": "rb-rerun"}

    def test_crc_flip_in_tail_is_healed(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt the last frame's payload
        path.write_bytes(bytes(blob))
        state, info = load_journal(path)
        assert info.healed
        assert state.completed == {"a": "ra"}

    def test_magicless_file_is_corrupt_not_healed(self, tmp_path):
        path = tmp_path / "garbage.journal"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(CheckpointCorrupt):
            load_journal(path)

    def test_unknown_record_shape_is_corrupt(self, tmp_path):
        """A CRC-valid interior record with an unrecognized kind is
        campaign corruption, not a torn tail — healing it away would
        silently drop committed work after it."""
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra")])
        with open(path, "ab") as fh:
            fh.write(_encode_frame("no-such-kind", ("x", "y")))
            fh.write(_encode_frame("unit", ("b", "rb")))
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_journal(path)
        assert "delete the file" in str(excinfo.value)

    @pytest.mark.parametrize("offset, byte", [
        pytest.param(10, 0x80, id="OverflowError"),
        pytest.param(21, ord("R"), id="TypeError"),
        pytest.param(2, 0x54, id="UnicodeDecodeError"),
    ])
    def test_undecodable_record_is_corrupt(self, tmp_path, offset, byte):
        """A CRC-valid record whose pickle has one byte changed raises
        CheckpointCorrupt, whatever exception the unpickler threw."""
        payload = bytearray(
            pickle.dumps(("unit", ("a", "ra")), protocol=5)
        )
        payload[offset] = byte
        path = tmp_path / "campaign.journal"
        path.write_bytes(MAGIC + encode_frame(bytes(payload)))
        with pytest.raises(CheckpointCorrupt, match="undecodable"):
            load_journal(path)

    @pytest.mark.parametrize("size", [None, 0])
    def test_missing_or_empty_file_opens_fresh(self, tmp_path, size):
        path = tmp_path / "campaign.journal"
        if size is not None:
            path.write_bytes(b"")
        journal = CampaignJournal.resume(path)
        assert journal.completed == {} and journal.load_info.records == 0
        journal.record("a", "ra")
        journal.close()
        assert path.read_bytes().startswith(MAGIC)
        assert load_journal(path)[0].completed == {"a": "ra"}

    def test_empty_journal_after_magic_is_valid(self, tmp_path):
        path = tmp_path / "campaign.journal"
        path.write_bytes(MAGIC)
        state, info = load_journal(path)
        assert state.completed == {}
        assert info.records == 0


class TestCompaction:
    def test_compacts_after_threshold(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path, compact_every=3)
        for i in range(3):
            journal.record(f"u{i}", f"r{i}")
        journal.close()
        state, info = load_journal(path)
        assert info.records == 1  # rewritten as a single base snapshot
        assert state.completed == {f"u{i}": f"r{i}" for i in range(3)}

    def test_compaction_bounds_file_size(self, tmp_path):
        growing = tmp_path / "growing.journal"
        journal = CampaignJournal.create(growing, compact_every=4)
        for i in range(64):
            journal.record(f"u{i}", "x" * 32)
        journal.close()
        compact = tmp_path / "compact.journal"
        snapshot = CampaignJournal.adopt(compact, journal.snapshot())
        snapshot.close()
        # Same state, and the journal never grew past O(state) + a few
        # uncompacted records.
        assert load_journal(growing)[0].completed == journal.completed
        assert growing.stat().st_size < 3 * compact.stat().st_size

    def test_appends_continue_after_compaction(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path, compact_every=2)
        for i in range(5):
            journal.record(f"u{i}", f"r{i}")
        journal.close()
        state, _ = load_journal(path)
        assert state.completed == {f"u{i}": f"r{i}" for i in range(5)}


class TestDurabilityCadence:
    def test_checkpoint_interval_batches_fsync(self, tmp_path, monkeypatch):
        import repro.resilience.journal as journal_module

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        journal = CampaignJournal.create(
            tmp_path / "j.journal", checkpoint_interval=3
        )
        base_syncs = len(calls)  # the base snapshot is always durable
        journal.record("a", "ra")
        journal.record("b", "rb")
        assert len(calls) == base_syncs  # batched: not yet at interval
        journal.record("c", "rc")
        assert len(calls) == base_syncs + 1  # third unit hit the cadence
        journal.close()

    def test_suspend_is_always_durable(self, tmp_path, monkeypatch):
        import repro.resilience.journal as journal_module

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        journal = CampaignJournal.create(
            tmp_path / "j.journal", checkpoint_interval=100
        )
        before = len(calls)
        journal.suspend("a", "partial")
        assert len(calls) == before + 1
        journal.close()


class TestLegacyInterop:
    def test_adopt_migrates_legacy_state(self, tmp_path):
        legacy = CampaignCheckpoint(completed={"a": "ra"}, current="b")
        path = tmp_path / "migrated.journal"
        journal = CampaignJournal.adopt(path, legacy)
        journal.record("b", "rb")
        journal.close()
        assert is_journal(path)
        state, _ = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}

    def test_corrupt_legacy_is_clean_mismatch(self, tmp_path):
        """An old whole-file checkpoint, intact or garbled, fails with a
        clean CheckpointCorrupt naming the bad magic — never a raw
        pickle traceback, and never a silent fresh start."""
        intact = tmp_path / "legacy.ckpt"
        _pickle_envelope(intact, CampaignCheckpoint(completed={"a": "ra"}))
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(b"\x80\x05 broken pickle bytes")
        for path in (intact, broken):
            before = path.read_bytes()
            with pytest.raises(CheckpointCorrupt, match="bad magic"):
                load_journal(path)
            assert path.read_bytes() == before
