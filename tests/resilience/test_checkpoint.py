"""Checkpoint/resume: resumed runs reach uninterrupted verdicts.

The acceptance bar: for at least one model per family (synchronous,
mobile, shared-memory), running ``check_all`` under a budget that trips,
then resuming from the produced checkpoint — possibly over many hops —
must yield a verdict identical to the uninterrupted run's, witness
included.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.checker import ConsensusChecker
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckAllCheckpoint,
    CheckpointCorrupt,
    CheckpointMismatch,
    system_fingerprint,
)
from repro.resilience.journal import MAGIC, CampaignJournal, load_journal
from repro.serve.store import VerdictStore

MAX_HOPS = 500


def _resume_to_verdict(system, per_hop_budget):
    """Run check_all under a tiny budget, resuming until conclusive."""
    checkpoint = None
    for _ in range(MAX_HOPS):
        report = ConsensusChecker(system, per_hop_budget).check_all(
            system.model, checkpoint=checkpoint
        )
        if not report.inconclusive:
            return report
        checkpoint = report.checkpoint
        assert isinstance(checkpoint, CheckAllCheckpoint)
    raise AssertionError(f"no verdict after {MAX_HOPS} resume hops")


def _assert_same_outcome(resumed, baseline):
    assert resumed.verdict is baseline.verdict
    assert resumed.inputs == baseline.inputs
    if baseline.execution is None:
        assert resumed.execution is None
    else:
        assert resumed.execution.actions == baseline.execution.actions
    assert resumed.states_explored == baseline.states_explored


class TestResumeEqualsUninterrupted:
    def test_synchronous_family(self, st_floodset_tight):
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        resumed = _resume_to_verdict(st_floodset_tight, per_hop_budget=5)
        assert baseline.satisfied
        _assert_same_outcome(resumed, baseline)

    def test_edge_budget_smaller_than_one_expansion(self, st_floodset_tight):
        # The root's layer alone has 12 edges: every hop must still get
        # past the state it stopped before.
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        resumed = _resume_to_verdict(
            st_floodset_tight, per_hop_budget=Budget(max_edges=3)
        )
        assert baseline.satisfied
        _assert_same_outcome(resumed, baseline)

    def test_synchronous_family_refuted(self, st_floodset_fast):
        baseline = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model
        )
        resumed = _resume_to_verdict(st_floodset_fast, per_hop_budget=2)
        assert baseline.refuted
        _assert_same_outcome(resumed, baseline)

    def test_mobile_family(self, mobile_floodset):
        baseline = ConsensusChecker(mobile_floodset).check_all(
            mobile_floodset.model
        )
        resumed = _resume_to_verdict(mobile_floodset, per_hop_budget=25)
        _assert_same_outcome(resumed, baseline)

    def test_shared_memory_family(self, quorum_synchronic_rw):
        baseline = ConsensusChecker(quorum_synchronic_rw).check_all(
            quorum_synchronic_rw.model
        )
        resumed = _resume_to_verdict(quorum_synchronic_rw, per_hop_budget=50)
        _assert_same_outcome(resumed, baseline)


class TestDiskRoundTrip:
    def test_save_load_resume(self, st_floodset_tight, tmp_path):
        report = ConsensusChecker(st_floodset_tight, max_states=5).check_all(
            st_floodset_tight.model
        )
        assert report.inconclusive
        path = tmp_path / "sweep.ckpt"
        journal = CampaignJournal.create(path)
        journal.suspend("unit", report.checkpoint)
        journal.close()
        loaded = load_journal(path)[0].resume_point("unit")
        assert isinstance(loaded, CheckAllCheckpoint)
        assert loaded.assignment_index == report.checkpoint.assignment_index
        resumed = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, checkpoint=loaded
        )
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        assert resumed.verdict is baseline.verdict
        assert resumed.states_explored == baseline.states_explored

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        import pickle

        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CheckpointMismatch):
            load_journal(path)

class TestFingerprintGuard:
    def test_wrong_system_rejected(
        self, st_floodset_tight, st_floodset_fast
    ):
        report = ConsensusChecker(st_floodset_tight, max_states=5).check_all(
            st_floodset_tight.model
        )
        assert report.inconclusive
        with pytest.raises(CheckpointMismatch):
            ConsensusChecker(st_floodset_fast).check_all(
                st_floodset_fast.model, checkpoint=report.checkpoint
            )

    def test_fingerprint_mentions_protocol(self, st_floodset_tight):
        fp = system_fingerprint(st_floodset_tight)
        assert "StSynchronousLayering" in fp
        assert "FloodSet" in fp


class _JournalCompaction:
    """A journal holding ``OLD``, compacted into one holding ``NEW``."""

    OLD, NEW = {"unit": "v1"}, {"unit": "v2"}

    @staticmethod
    def write_old(path):
        journal = CampaignJournal.create(path)
        journal.record("unit", "v1")
        journal.close()

    @staticmethod
    def compact_new(path):
        journal = CampaignJournal.resume(path)
        journal.completed["unit"] = "v2"
        journal.compact()
        journal.close()

    @staticmethod
    def read(path):
        return load_journal(path)[0].completed


class _StoreCompaction:
    """A verdict store holding ``OLD``, compacted into one holding
    ``NEW``."""

    OLD, NEW = ["old", "unit"], ["unit"]

    @staticmethod
    def write_old(path):
        with VerdictStore(path) as store:
            store.put("old", {}, {"v": 1})
            store.put("unit", {}, {"v": 2})

    @staticmethod
    def compact_new(path):
        with VerdictStore(path) as store:
            store.compact(retain=1)

    @staticmethod
    def read(path):
        with VerdictStore(path) as store:
            return store.fingerprints()


@pytest.mark.parametrize(
    "durable",
    [
        pytest.param(_JournalCompaction, id="journal"),
        pytest.param(_StoreCompaction, id="store"),
    ],
)
class TestAtomicSave:
    """The shared atomic rewrite (``FramedFile.rewrite``), driven
    through each file that compacts with it."""

    def test_save_replaces_atomically(self, tmp_path, durable):
        path = tmp_path / "durable.file"
        durable.write_old(path)
        durable.compact_new(path)
        assert durable.read(path) == durable.NEW
        assert list(tmp_path.glob("*.tmp")) == []

    def test_mid_write_death_preserves_previous(self, tmp_path, durable):
        """SIGKILL while the new contents are being written must leave
        the previous file loadable — the write goes to a temp file and
        only an atomic rename publishes it."""
        import multiprocessing
        import signal

        path = tmp_path / "durable.file"
        durable.write_old(path)
        before = path.read_bytes()

        def die_mid_save() -> None:
            def torn_fsync(fd):
                os.write(fd, b"torn-partial-write")
                os.kill(os.getpid(), signal.SIGKILL)

            os.fsync = torn_fsync
            durable.compact_new(path)

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=die_mid_save)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        assert path.read_bytes() == before
        assert durable.read(path) == durable.OLD

    def test_directory_fsynced_after_rename(
        self, tmp_path, monkeypatch, durable
    ):
        """Durability needs three steps in order: fsync the temp file,
        rename it over the target, fsync the *directory* — without the
        last one a power failure can roll the rename back even though
        os.replace already returned."""
        import stat as stat_module

        path = tmp_path / "durable.file"
        durable.write_old(path)
        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append(
                ("fsync", "dir" if stat_module.S_ISDIR(mode) else "file")
            )
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("rename", None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        durable.compact_new(path)
        assert events == [
            ("fsync", "file"),
            ("rename", None),
            ("fsync", "dir"),
        ]

    def test_failed_save_cleans_temp_and_keeps_old(
        self, tmp_path, monkeypatch, durable
    ):
        path = tmp_path / "durable.file"
        durable.write_old(path)
        before = path.read_bytes()

        def boom(fd):
            raise RuntimeError("disk full, say")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(RuntimeError):
            durable.compact_new(path)
        monkeypatch.undo()
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == before
        assert durable.read(path) == durable.OLD


class TestCorruptLoad:
    def test_truncated_file_is_a_clean_diagnostic(self, tmp_path):
        """A file torn inside its magic is no journal: refused with a
        diagnostic naming it, not opened as a fresh campaign."""
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(MAGIC[: len(MAGIC) // 2])
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_journal(path)
        message = str(excinfo.value)
        assert "corrupted checkpoint" in message
        assert str(path) in message

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not a pickle at all \x00\xff")
        with pytest.raises(CheckpointCorrupt):
            load_journal(path)

    def test_corrupt_is_a_mismatch(self):
        """Existing CheckpointMismatch handlers (the CLI exits 2) must
        cover corruption without new plumbing."""
        assert issubclass(CheckpointCorrupt, CheckpointMismatch)

    def test_missing_file_stays_oserror(self, tmp_path):
        """A missing file opens as a fresh journal, but a path that
        cannot be created is still an OSError."""
        with pytest.raises(OSError):
            load_journal(tmp_path / "no-such-dir" / "never-written.ckpt")


class TestCampaignCheckpoint:
    def test_record_and_report_for(self):
        campaign = CampaignCheckpoint()
        assert campaign.report_for("unit") is None
        campaign.suspend("unit", inner=None)
        campaign.record("unit", report="done")
        assert campaign.report_for("unit") == "done"
        assert campaign.current is None and campaign.inner is None

    def test_resume_point_is_keyed(self):
        campaign = CampaignCheckpoint()
        campaign.suspend("a", inner="partial-a")
        assert campaign.resume_point("a") == "partial-a"
        assert campaign.resume_point("b") is None


SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Check one assignment of WaitForAll in S^per, n=3: uninterrupted it is a
#: DECISION violation after 538 states.  ``budget`` trips the first run.
_CROSS_PROCESS_CHECK = textwrap.dedent(
    """
    import pickle, sys
    from repro import AsyncMessagePassingModel, PermutationLayering, WaitForAll
    from repro.core.checker import ConsensusChecker
    from repro.resilience.budget import Budget

    mode, path, budget = sys.argv[1], sys.argv[2], int(sys.argv[3])
    model = AsyncMessagePassingModel(WaitForAll(), 3)
    checker = ConsensusChecker(
        PermutationLayering(model), max_states=Budget(max_states=budget)
    )
    checkpoint = None
    if mode == "resume":
        with open(path, "rb") as fh:
            checkpoint = pickle.load(fh)
    inputs = (0, 1, 1)
    report = checker.check(model.initial_state(inputs), inputs, checkpoint)
    if mode == "start":
        with open(path, "wb") as fh:
            pickle.dump(report.checkpoint, fh)
    print(report.verdict.name, report.states_explored)
    """
)


def _run_check(mode, path, budget):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONHASHSEED", None)  # each interpreter salts its own hashes
    done = subprocess.run(
        [sys.executable, "-c", _CROSS_PROCESS_CHECK, mode, str(path),
         str(budget)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.split()


class TestCrossInterpreterResume:
    def test_resume_in_a_fresh_interpreter_matches_uninterrupted(
        self, tmp_path
    ):
        """A checkpoint pickled in one process and resumed in another
        must reach the uninterrupted verdict.  A state's cached hash is
        valid only in the interpreter that computed it: resumed with
        stale hashes, the search misses every visited-set lookup and
        here reports SATISFIED after 621 states."""
        path = tmp_path / "check.pickle"
        assert _run_check("start", path, 150)[0] == "UNKNOWN"
        assert _run_check("resume", path, 100_000) == ["DECISION", "538"]
        assert _run_check("uninterrupted", path, 100_000) == [
            "DECISION", "538",
        ]
