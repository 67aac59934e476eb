"""The verdict store: durability, healing, and corruption refusal.

Mirrors the journal's torn-tail contract (tests/resilience/
test_journal.py): any byte-level truncation of the tail must open as a
prefix of the committed records and physically heal the file, while
interior damage that truncation cannot explain — bad magic, a CRC-valid
frame that is not a verdict record, a duplicated fingerprint — must be
*refused* with :class:`StoreCorrupt`, never silently dropped.
"""

import pytest

from repro.resilience.crashpoint import ChaosInjected, active_plan
from repro.resilience.frames import encode_frame
from repro.serve.jobs import canonical_json
from repro.serve.store import MAGIC, StoreCorrupt, VerdictStore


def _store_with_records(path, count=3):
    jobs = [{"kind": "probe", "work": i + 1, "value": ""} for i in range(count)]
    with VerdictStore(path) as store:
        for i, job in enumerate(jobs):
            assert store.put(f"fp{i}", job, {"verdict": "probe", "i": i})
    return [f"fp{i}" for i in range(count)]


class TestLifecycle:
    def test_missing_file_is_fresh(self, tmp_path):
        with VerdictStore(tmp_path / "v.store") as store:
            assert len(store) == 0
            assert store.load_info.records == 0

    def test_zero_byte_file_is_fresh(self, tmp_path):
        path = tmp_path / "v.store"
        path.write_bytes(b"")
        with VerdictStore(path) as store:
            assert len(store) == 0
            assert store.load_info.records == 0

    def test_put_get_roundtrip_across_reopen(self, tmp_path):
        path = tmp_path / "v.store"
        fps = _store_with_records(path, 3)
        with VerdictStore(path) as store:
            assert store.fingerprints() == fps
            assert store.get("fp1")["record"] == {"verdict": "probe", "i": 1}
            assert "fp2" in store
            assert "fp9" not in store

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "v.store"
        with VerdictStore(path) as store:
            assert store.put("fp", {"kind": "probe"}, {"verdict": "probe"})
            assert not store.put("fp", {"kind": "probe"}, {"verdict": "probe"})
            assert len(store) == 1

    def test_record_bytes_are_canonical(self, tmp_path):
        """Stored bytes are a pure function of content — the byte
        identity the chaos harness compares across kill cycles."""
        path = tmp_path / "v.store"
        with VerdictStore(path) as store:
            store.put("fp", {"b": 1, "a": 2}, {"z": 3, "y": 4})
            expected = canonical_json(
                {"fingerprint": "fp", "job": {"b": 1, "a": 2},
                 "record": {"z": 3, "y": 4}}
            )
            assert store.record_bytes("fp") == expected


class TestTornTailHealing:
    def test_every_truncation_offset_heals(self, tmp_path):
        """Chop the store at *every* byte offset: each open must succeed,
        expose a prefix of the committed records, and leave the file
        healed (a second open reports nothing to fix)."""
        path = tmp_path / "v.store"
        fps = _store_with_records(path, 3)
        blob = path.read_bytes()
        prefixes = [fps[:i] for i in range(len(fps) + 1)]
        for cut in range(len(MAGIC), len(blob) + 1):
            torn = tmp_path / f"torn-{cut}.store"
            torn.write_bytes(blob[:cut])
            with VerdictStore(torn) as store:
                assert store.fingerprints() in prefixes, f"cut at {cut}"
                first = store.fingerprints()
            with VerdictStore(torn) as healed:
                assert healed.load_info.healed_bytes == 0, f"cut at {cut}"
                assert healed.fingerprints() == first

    def test_appends_continue_after_healing(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # tear the final frame
        with VerdictStore(path) as store:
            assert store.fingerprints() == ["fp0"]
            assert store.load_info.healed_bytes > 0
            store.put("fp9", {"kind": "probe"}, {"verdict": "probe"})
        with VerdictStore(path) as store:
            assert store.fingerprints() == ["fp0", "fp9"]
            assert store.load_info.healed_bytes == 0


class TestCorruptInterior:
    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "v.store"
        path.write_bytes(b"NOTMYFILE" + b"x" * 30)
        with pytest.raises(StoreCorrupt):
            VerdictStore(path)

    def test_journal_magic_refused(self, tmp_path):
        """A journal file is not a verdict store, even though both use
        the same framing underneath."""
        path = tmp_path / "v.store"
        path.write_bytes(b"RJRNL001\n")
        with pytest.raises(StoreCorrupt):
            VerdictStore(path)

    def test_crc_valid_non_json_payload_refused(self, tmp_path):
        path = tmp_path / "v.store"
        path.write_bytes(MAGIC + encode_frame(b"\x80 not json"))
        with pytest.raises(StoreCorrupt, match="not valid JSON"):
            VerdictStore(path)

    def test_crc_valid_wrong_shape_refused(self, tmp_path):
        path = tmp_path / "v.store"
        path.write_bytes(MAGIC + encode_frame(b'{"hello": "world"}'))
        with pytest.raises(StoreCorrupt, match="not a verdict record"):
            VerdictStore(path)

    def test_crc_valid_deeply_nested_json_refused(self, tmp_path):
        """JSON nested past the parser's recursion limit raises
        RecursionError inside json.loads; the store must still refuse
        it as StoreCorrupt."""
        path = tmp_path / "v.store"
        path.write_bytes(MAGIC + encode_frame(b"[" * 100000 + b"]" * 100000))
        with pytest.raises(StoreCorrupt, match="RecursionError"):
            VerdictStore(path)

    def test_duplicate_fingerprint_refused(self, tmp_path):
        path = tmp_path / "v.store"
        frame = encode_frame(
            canonical_json(
                {"fingerprint": "fp", "job": {}, "record": {"v": 1}}
            )
        )
        path.write_bytes(MAGIC + frame + frame)
        with pytest.raises(StoreCorrupt, match="stored twice"):
            VerdictStore(path)

    def test_refusal_names_the_file(self, tmp_path):
        path = tmp_path / "v.store"
        path.write_bytes(MAGIC + encode_frame(b"[1, 2]"))
        with pytest.raises(StoreCorrupt, match="v.store"):
            VerdictStore(path)


class TestCompaction:
    """GC-by-rewrite: newest *retain* survive, atomically, reloadably."""

    def test_retain_keeps_the_newest(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 5)
        with VerdictStore(path) as store:
            assert store.compact(retain=2) == 3
            assert store.fingerprints() == ["fp3", "fp4"]
        with VerdictStore(path) as reloaded:
            assert reloaded.fingerprints() == ["fp3", "fp4"]
            assert reloaded.get("fp4")["record"] == {"verdict": "probe", "i": 4}
            assert reloaded.get("fp0") is None

    def test_retain_none_rewrites_without_eviction(self, tmp_path):
        path = tmp_path / "v.store"
        fps = _store_with_records(path, 3)
        before = path.read_bytes()
        with VerdictStore(path) as store:
            assert store.compact() == 0
            assert store.fingerprints() == fps
        # An append-only store has no dead bytes: the rewrite is
        # byte-identical, which is what makes the chaos comparison of
        # compacted vs uncompacted stores meaningful.
        assert path.read_bytes() == before

    def test_retain_zero_evicts_everything(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 2)
        with VerdictStore(path) as store:
            assert store.compact(retain=0) == 2
            assert len(store) == 0
        with VerdictStore(path) as reloaded:
            assert len(reloaded) == 0

    def test_appends_continue_after_compaction(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 3)
        with VerdictStore(path) as store:
            store.compact(retain=1)
            assert store.put("fp9", {"kind": "probe"}, {"verdict": "probe"})
        with VerdictStore(path) as reloaded:
            assert reloaded.fingerprints() == ["fp2", "fp9"]

    def test_compaction_is_idempotent(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 4)
        with VerdictStore(path) as store:
            assert store.compact(retain=2) == 2
            assert store.compact(retain=2) == 0
            assert store.fingerprints() == ["fp2", "fp3"]

    def test_crash_before_rename_leaves_the_old_store(self, tmp_path):
        """A failure inside the compaction seam must leave the previous
        store bytes untouched and no temporary debris behind."""
        path = tmp_path / "v.store"
        fps = _store_with_records(path, 3)
        before = path.read_bytes()
        with VerdictStore(path) as store:
            with active_plan("serve.store.compact.rename.pre:1:raise"):
                with pytest.raises(ChaosInjected):
                    store.compact(retain=1)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        with VerdictStore(path) as reloaded:
            assert reloaded.fingerprints() == fps

    def test_failure_after_the_rename_keeps_memory_and_disk_in_step(
        self, tmp_path
    ):
        path = tmp_path / "v.store"
        _store_with_records(path, 3)
        with VerdictStore(path) as store:
            with active_plan("serve.store.compact.post:1:raise"):
                with pytest.raises(ChaosInjected):
                    store.compact(retain=1)
            assert store.fingerprints() == ["fp2"]
        with VerdictStore(path) as reloaded:
            assert reloaded.fingerprints() == ["fp2"]

    def test_crash_before_compaction_changes_nothing(self, tmp_path):
        path = tmp_path / "v.store"
        _store_with_records(path, 3)
        before = path.read_bytes()
        with VerdictStore(path) as store:
            with active_plan("serve.store.compact.pre:1:raise"):
                with pytest.raises(ChaosInjected):
                    store.compact(retain=1)
        assert path.read_bytes() == before
