"""E16 — checkpoint journaling overhead: durability must be near-free.

The journaled campaign checkpoint (:mod:`repro.resilience.journal`)
appends one CRC-framed record per finished unit and fsyncs at a
configurable cadence.  This bench prices it against an uncheckpointed
run on a campaign of small units — the harshest realistic shape, since
per-unit checkpoint cost is amortized worst when units are cheap.

Two arms over the same ``run_campaign`` workload (synchronic-rw
QuorumDecide ``check_all`` units, the E12 grid cell):

* ``none`` — no campaign checkpoint at all (the floor).
* ``journal`` — :class:`CampaignJournal` with ``checkpoint_interval=1``:
  every unit appended *and* fsynced before the campaign proceeds.

The acceptance bar: journaling at interval 1 costs < ``OVERHEAD_BAR``
relative to no checkpointing.
"""

import time

import pytest

from benchmarks.helpers import save_table
from repro.analysis.campaign import SweepUnit, run_campaign
from repro.analysis.reports import render_table
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget
from repro.resilience.journal import CampaignJournal

#: The allowed relative slowdown of interval-1 journaling vs none.
OVERHEAD_BAR = 0.05

#: Timer-noise allowance for the hard assertion on shared machines.
NOISE_ALLOWANCE = 0.10

#: Units per campaign: enough appends that per-unit cost is visible.
UNIT_COUNT = 32

ARMS = ["none", "journal"]


def make_units():
    """UNIT_COUNT copies of the E12 S^rw n=3 cell as distinct units."""
    layering = SynchronicRWLayering(SharedMemoryModel(QuorumDecide(2), 3))
    return [
        (
            f"e16:srw:u{i}",
            SweepUnit(
                system=layering,
                model=layering.model,
                budget=Budget.unlimited(),
            ),
        )
        for i in range(UNIT_COUNT)
    ]


def run_arm(arm: str, tmp_path):
    units = make_units()
    path = tmp_path / f"{arm}.ckpt"
    if arm == "none":
        campaign = None
    elif arm == "journal":
        campaign = CampaignJournal.create(path, checkpoint_interval=1)
    else:
        raise ValueError(arm)
    results = run_campaign(units, campaign=campaign)
    if isinstance(campaign, CampaignJournal):
        campaign.close()
    assert len(results) == UNIT_COUNT
    return path


@pytest.mark.parametrize("arm", ARMS)
def test_e16_campaign_under_checkpointing(benchmark, arm, tmp_path):
    benchmark.pedantic(run_arm, args=(arm, tmp_path), rounds=1)


def _wall_seconds(arm: str, tmp_path, repeats: int = 3):
    """Best-of-N wall clock (best-of suppresses one-sided OS noise)."""
    best = float("inf")
    size = 0
    for i in range(repeats):
        workdir = tmp_path / f"{arm}-{i}"
        workdir.mkdir()
        start = time.perf_counter()
        path = run_arm(arm, workdir)
        best = min(best, time.perf_counter() - start)
        size = path.stat().st_size if path.exists() else 0
    return best, size


def test_e16_table(tmp_path):
    rows = []
    walls = {}
    for arm in ARMS:
        wall, size = _wall_seconds(arm, tmp_path)
        walls[arm] = wall
        per_unit_ms = (wall - walls["none"]) / UNIT_COUNT * 1e3
        rows.append([
            arm,
            UNIT_COUNT,
            f"{wall:.3f}",
            f"{per_unit_ms:+.2f}" if arm != "none" else "-",
            size or "-",
        ])
    journal_overhead = walls["journal"] / walls["none"] - 1.0
    rows.append(
        ["journal-vs-none overhead", "-", f"{journal_overhead:+.1%}", "-", "-"]
    )
    save_table(
        "e16_checkpoint_overhead",
        "E16: campaign checkpoint overhead (synchronic-rw QuorumDecide "
        f"n=3 x {UNIT_COUNT} units; journal fsync every unit; "
        f"bar: <{OVERHEAD_BAR:.0%})",
        render_table(
            ["checkpointing", "units", "wall s", "ms/unit", "bytes"], rows
        ),
    )
    assert journal_overhead < OVERHEAD_BAR + NOISE_ALLOWANCE, (
        f"interval-1 journaling overhead {journal_overhead:.1%} is far "
        f"above the {OVERHEAD_BAR:.0%} target"
    )
