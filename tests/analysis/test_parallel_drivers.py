"""Parallel campaign drivers: identical tables, incremental checkpoints.

The analysis drivers (``refute_candidate``, ``defeat_fast_candidates``,
``verify_tight_protocols``, ``solvability_matrix``) must produce results
identical to their sequential selves under ``workers=N``, record
campaign progress as workers finish, and surface the flags end-to-end
through the CLI.
"""

from functools import lru_cache
from itertools import product

import pytest

from repro.analysis.campaign import SweepUnit, run_campaign
from repro.analysis.impossibility import refute_candidate
from repro.analysis.solvability_experiments import solvability_matrix
from repro.analysis.sync_lower_bound import (
    defeat_fast_candidates,
    make_st_system,
    verify_tight_protocols,
)
from repro.cli import EXIT_INCONCLUSIVE, EXIT_OK, main
from repro.protocols.candidates import QuorumDecide
from repro.protocols.floodset import FloodSet
from repro.protocols.registry import PROTOCOLS
from repro.resilience import pool as pool_module
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.journal import CampaignJournal, load_journal
from repro.resilience.pool import PoolConfig


def _rows_equal(parallel_rows, sequential_rows):
    assert len(parallel_rows) == len(sequential_rows)
    for par, seq in zip(parallel_rows, sequential_rows):
        assert par.protocol_name == seq.protocol_name
        assert par.report.verdict is seq.report.verdict
        assert par.report.inputs == seq.report.inputs
        assert par.report.states_explored == seq.report.states_explored


class TestDriverParity:
    def test_defeat_fast_candidates(self):
        _rows_equal(
            defeat_fast_candidates(3, 1, workers=2),
            defeat_fast_candidates(3, 1),
        )

    def test_verify_tight_protocols(self):
        sequential = verify_tight_protocols(3, 1, include_full_model=False)
        parallel = verify_tight_protocols(
            3, 1, include_full_model=False, workers=2
        )
        _rows_equal(parallel, sequential)
        assert all(r.report.satisfied for r in parallel)

    def test_refute_candidate(self):
        sequential = refute_candidate(QuorumDecide(quorum=2), 3)
        parallel = refute_candidate(QuorumDecide(quorum=2), 3, workers=3)
        assert len(parallel) == len(sequential)
        for par, seq in zip(parallel, sequential):
            assert par.model_name == seq.model_name
            assert par.verdict is seq.verdict
            assert par.report.states_explored == seq.report.states_explored

    def test_solvability_matrix(self):
        kwargs = dict(tasks=["identity", "constant"], max_states=50_000)
        sequential = solvability_matrix(**kwargs)
        parallel = solvability_matrix(workers=2, **kwargs)
        assert list(parallel) == list(sequential)
        for name in sequential:
            assert parallel[name].row == sequential[name].row
            assert parallel[name].error is None
            assert (
                parallel[name].matches_expectation
                == sequential[name].matches_expectation
            )


@lru_cache(maxsize=None)
def _sequential_refutations(name):
    return tuple(refute_candidate(PROTOCOLS[name](3), 3))


def _refutation_fields(rows):
    return [
        (
            row.model_name,
            row.verdict,
            row.report.inputs,
            row.schedule(),
            row.report.states_explored,
        )
        for row in rows
    ]


def _decided_prefix(report):
    """How many assignments the sequential sweep read (one per shard at
    the default shard size): up to and including the refuting one."""
    return list(product((0, 1), repeat=3)).index(report.inputs) + 1


class TestRegistryParity:
    """A parallel campaign stops each sweep early, yet reports exactly
    what the sequential campaign reports."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_parallel_refutations_equal_sequential(self, name):
        sequential = _sequential_refutations(name)
        parallel = refute_candidate(
            PROTOCOLS[name](3),
            3,
            workers=2,
            pool=PoolConfig(workers=2),
        )
        assert all(row.refuted for row in sequential)
        assert _refutation_fields(parallel) == _refutation_fields(sequential)

    def test_waitforall_runs_a_bounded_prefix(self, monkeypatch):
        """How far past its decided prefix a sweep reads, on a scripted
        dispatch order.

        Under the withdrawal rule a shard of a sweep is dispatched only
        before the sweep is decided, and one still running when it is
        decided is stopped without an outcome.  Shards are ranked by
        (span index, sweep order), so a sweep's spans beyond its decided
        prefix are dispatched no earlier than its last prefix span.  In
        lockstep — the next shards are handed out only once every worker
        is idle — the sweep is decided by the end of the batch holding
        that last prefix span, so at most ``workers - 1`` shards beyond
        its prefix are dispatched.  (A free-running pool has no such
        bound: an idle worker may read ahead in a sweep whose first
        shard is slow, while nothing else is pending.)  Every WaitForAll
        sweep refutes at its first assignment, so the lockstep schedule
        is exactly [s0:0, s1:0], [s2:0, s3:0], [s4:0, s4:1] for the 5
        sweeps.  Whether s4:1 has an outcome depends on whether it beats
        s4:0, which decides the sweep and stops it."""
        from repro.resilience import pool as pool_module

        dispatch = pool_module.WorkerPool._dispatch
        dispatched = []

        def lockstep(self):
            if not any(worker.busy for worker in self._workers):
                dispatch(self)
                dispatched.extend(w.key for w in self._workers if w.busy)

        monkeypatch.setattr(pool_module.WorkerPool, "_dispatch", lockstep)
        workers = 2
        reports = []
        rows = refute_candidate(
            PROTOCOLS["waitforall"](3),
            3,
            workers=workers,
            pool=PoolConfig(workers=workers, report_sink=reports.append),
        )
        (pool_report,) = reports
        ran = list(pool_report.outcomes)
        assert len(ran) + len(pool_report.withdrawn) == 40
        assert len(rows) == 5
        for index, row in enumerate(rows):
            prefix = _decided_prefix(row.report)
            assert prefix == 1
            sweep = f":{row.model_name}:"
            sent = sorted(lo for key, lo in dispatched if sweep in key)
            spans = sorted(lo for key, lo in ran if sweep in key)
            assert spans[:prefix] == list(range(prefix))
            assert set(spans) <= set(sent)
            assert len(sent) <= prefix + workers - 1
            assert sent == ([0, 1] if index == len(rows) - 1 else [0])


class TestCampaignIntegration:
    def test_journal_records_each_sweep_once_when_decided(
        self, tmp_path, monkeypatch
    ):
        """A sweep is journaled in the very callback whose shard decides
        it, not after its last shard, and no shard of it completes after
        its record: the ones still running are stopped."""
        workers = 2
        events = []
        run_units = pool_module.run_units

        def traced_run_units(fn, units, config, on_complete=None, context=None):
            def traced(outcome):
                events.append(("shard",) + outcome.key)
                return on_complete(outcome)

            return run_units(fn, units, config, traced, context)

        # The campaign imports the pool's run_units when a run asks for
        # workers, so the patch goes where it is defined.
        monkeypatch.setattr(pool_module, "run_units", traced_run_units)
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path, checkpoint_interval=1)
        record = journal.record

        def traced_record(key, report):
            events.append(("record", key))
            record(key, report)

        journal.record = traced_record
        try:
            rows = refute_candidate(
                PROTOCOLS["waitforall"](3), 3, workers=workers, campaign=journal
            )
        finally:
            journal.close()
        records = [event[1] for event in events if event[0] == "record"]
        assert sorted(records) == sorted(
            f"refute:{row.model_name}:{row.protocol_name}:n3" for row in rows
        )
        for row in rows:
            key = f"refute:{row.model_name}:{row.protocol_name}:n3"
            at = events.index(("record", key))
            shards = [e[2] for e in events if e[0] == "shard" and e[1] == key]
            before = [
                e[2] for e in events[:at] if e[0] == "shard" and e[1] == key
            ]
            prefix = _decided_prefix(row.report)
            assert events[at - 1][:2] == ("shard", key)
            assert set(range(prefix)) <= set(before)
            assert shards == before
            assert len(shards) < 8  # not every shard ran
        state, _ = load_journal(path)
        assert set(state.completed) == set(records)
        for row in rows:
            key = f"refute:{row.model_name}:{row.protocol_name}:n3"
            recorded = state.completed[key]
            assert recorded.verdict is row.verdict
            assert recorded.inputs == row.report.inputs
            assert recorded.states_explored == row.report.states_explored

    @pytest.mark.parametrize(
        "first, second", [(None, 2), (2, None)], ids=["seq-then-2", "2-then-seq"]
    )
    def test_resume_under_other_worker_count_equals_uninterrupted(
        self, tmp_path, first, second
    ):
        """A campaign suspended mid-sweep resumes under a different worker
        count to exactly the uninterrupted run's report."""
        layering = make_st_system(FloodSet(2), 3, 1)
        key = "tight:st:floodset-2:n3:t1"

        def campaign_run(budget, journal, workers):
            unit = SweepUnit(layering, layering.model, budget)
            return run_campaign([(key, unit)], campaign=journal, workers=workers)

        ((_, baseline),) = run_campaign(
            [(key, SweepUnit(layering, layering.model, Budget()))]
        )
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path)
        try:
            ((_, stopped),) = campaign_run(Budget(max_states=10), journal, first)
        finally:
            journal.close()
        # Assignment 0 explores 9 states and assignment 1 needs 11, so
        # the budget trips inside assignment 1: mid-sweep, mid-BFS.
        assert stopped.inconclusive
        suspended = load_journal(path)[0].inner
        assert suspended.assignment_index == 1
        assert suspended.inner is not None
        journal = CampaignJournal.resume(path)
        try:
            ((_, resumed),) = campaign_run(Budget(), journal, second)
        finally:
            journal.close()
        assert baseline.satisfied
        assert resumed.verdict is baseline.verdict
        assert resumed.inputs == baseline.inputs
        assert resumed.detail == baseline.detail
        assert resumed.states_explored == baseline.states_explored
        assert load_journal(path)[0].completed[key].states_explored == (
            baseline.states_explored
        )

    def test_parallel_campaign_records_completed_units(self):
        campaign = CampaignCheckpoint()
        rows = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        assert len(campaign.completed) == len(rows)
        for row in rows:
            key = f"defeat:{row.protocol_name}:n3:t1"
            assert campaign.report_for(key) is not None

    def test_parallel_campaign_reuses_cached_units(self):
        campaign = CampaignCheckpoint()
        first = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        second = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        _rows_equal(second, first)
        # The cached reports are the same objects — nothing re-ran.
        for f, s in zip(first, second):
            assert s.report is f.report


class TestCLIWorkers:
    def test_lower_bound_with_workers(self, capsys):
        code = main(
            ["lower-bound", "--n", "3", "--t", "1", "--workers", "2"]
        )
        assert code == EXIT_OK
        assert "crossover holds" in capsys.readouterr().out

    def test_workers_output_matches_sequential(self, capsys):
        main(["lower-bound", "--n", "3", "--t", "1"])
        sequential_out = capsys.readouterr().out
        main(["lower-bound", "--n", "3", "--t", "1", "--workers", "2"])
        parallel_out = capsys.readouterr().out
        assert parallel_out == sequential_out

    def test_worker_flags_parse_with_knobs(self, capsys):
        code = main(
            [
                "impossibility",
                "--protocol",
                "quorum",
                "--workers",
                "2",
                "--unit-timeout",
                "60",
                "--max-retries",
                "2",
                "--max-states",
                "20000",
            ]
        )
        assert code == EXIT_OK

    def test_corrupted_resume_exits_2_with_diagnostic(
        self, tmp_path, capsys
    ):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"\x80\x05 definitely not a full pickle")
        code = main(["lower-bound", "--resume", str(path)])
        assert code == EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "corrupted checkpoint" in err
        assert "Traceback" not in err

    def test_parallel_run_writes_checkpoint_incrementally(
        self, tmp_path, capsys
    ):
        """With --checkpoint, the autosave hook persists units as they
        finish — the file exists and resumes cleanly afterwards."""
        path = tmp_path / "run.ckpt"
        code = main(
            [
                "lower-bound",
                "--n",
                "3",
                "--t",
                "1",
                "--workers",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK
        assert path.exists()
        capsys.readouterr()
        code = main(["lower-bound", "--resume", str(path), "--workers", "2"])
        assert code == EXIT_OK
        assert "crossover holds" in capsys.readouterr().out
