"""Kill -9 anywhere, resume byte-identically: the chaos sweeps.

The unmarked smoke test keeps a small always-on slice in tier-1 — a
kill at a mid-journal-append crashpoint and at a campaign unit boundary
must both recover to byte-identical stdout.  The exhaustive sweeps
(every reachable crashpoint, pooled mode, compaction mid-rename) carry
the ``chaos`` marker and run in the dedicated CI job::

    PYTHONPATH=src python -m pytest tests/integration/test_chaos_recovery.py -m chaos
"""

import pytest

from repro.resilience.chaos import CampaignTarget, chaos_sweep

SEQUENTIAL_ARGV = ["lower-bound", "--n", "3", "--t", "1"]
POOLED_ARGV = ["impossibility", "--protocol", "quorum", "--n", "3",
               "--workers", "4"]
COMPACTING_ARGV = [*SEQUENTIAL_ARGV, "--compact-every", "2"]


def _assert_all_identical(sweep):
    assert sweep.target.baseline.returncode == 0
    bad = [r for r in sweep.results if not r.ok]
    assert sweep.ok, "diverged cycles: " + "; ".join(
        f"{r.point}:{r.hit}:{r.mode} ({r.detail or 'stdout differs'})"
        for r in bad
    )


class TestChaosSmoke:
    def test_mid_append_and_unit_boundary_kills_recover(self, tmp_path):
        sweep = chaos_sweep(
            CampaignTarget(SEQUENTIAL_ARGV, timeout=120.0),
            workdir=str(tmp_path),
            points=["journal.append.mid", "campaign.unit.start"],
            max_hits_per_point=1,
        )
        assert {r.point for r in sweep.results} == {
            "journal.append.mid", "campaign.unit.start",
        }
        _assert_all_identical(sweep)


@pytest.mark.chaos
class TestChaosSweeps:
    def test_sequential_every_reachable_crashpoint(self, tmp_path):
        sweep = chaos_sweep(
            CampaignTarget(SEQUENTIAL_ARGV),
            workdir=str(tmp_path),
            max_hits_per_point=2,
        )
        # The census must see the whole instrumented engine path, not
        # a trivially short run.
        assert {"driver.lower_bound.campaign", "campaign.unit.finish",
                "journal.append.pre"} <= set(sweep.reachable)
        _assert_all_identical(sweep)

    def test_pooled_campaign_recovers(self, tmp_path):
        sweep = chaos_sweep(
            CampaignTarget(POOLED_ARGV, timeout=300.0),
            workdir=str(tmp_path),
            points=["pool.dispatch", "pool.merge",
                    "campaign.unit.finish", "journal.append.mid"],
            max_hits_per_point=1,
        )
        assert "pool.dispatch" in sweep.reachable
        _assert_all_identical(sweep)

    def test_compaction_mid_rename_recovers(self, tmp_path):
        sweep = chaos_sweep(
            CampaignTarget(COMPACTING_ARGV, timeout=120.0),
            workdir=str(tmp_path),
            points=["journal.compact.pre", "journal.compact.rename.pre",
                    "journal.compact.post"],
            max_hits_per_point=1,
        )
        assert "journal.compact.rename.pre" in sweep.reachable
        _assert_all_identical(sweep)
