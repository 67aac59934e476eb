"""The serve chaos harness: kill the server at durability seams.

The full sweep (every reachable crashpoint x 2 hits) is what ``repro
chaos --serve`` runs; here a restricted sweep over the three highest
value seams keeps the chaos-marked suite fast while still covering the
acceptance property end to end: after a kill -9 inside acceptance,
completion, or recovery itself, a restarted server loses no accepted
job, runs none twice, and stores byte-identical verdicts.
"""

import subprocess
import sys

import pytest

from repro.resilience.chaos import ENV_SCOPE, ENV_SPECS, chaos_sweep
from repro.serve.chaos import ServerTarget, _ledger_done_counts, default_battery
from repro.serve.client import ServerGone

from tests.serve.test_server import _client, _env, _probe, _stop

pytestmark = pytest.mark.chaos

#: One point per durability seam class: post-acceptance (job durable,
#: not yet queued visibly), the store->ledger completion gap, and the
#: recovery repair path itself (exercised via a staged first kill).
POINTS = ["serve.accept.post", "serve.complete.gap", "serve.recover.done"]


def test_restricted_sweep_recovers_everywhere(tmp_path):
    sweep = chaos_sweep(
        ServerTarget(battery=default_battery(jobs=3), timeout=120.0),
        workdir=str(tmp_path),
        max_hits_per_point=1,
        points=POINTS,
    )
    assert sweep.results, "no armed cycles ran"
    covered = {result.point for result in sweep.results}
    assert covered == set(POINTS), covered
    failures = [r for r in sweep.results if not r.ok]
    assert not failures, "\n".join(
        f"{r.point}:{r.hit}:{r.mode}: {r.detail}" for r in failures
    )
    assert sweep.ok, sweep.describe()


def test_default_battery_shape():
    battery = default_battery(jobs=4)
    assert len(battery) == 4
    assert battery[0]["kind"] == "refute"
    assert all(job["kind"] == "probe" for job in battery[1:])


def test_rejects_non_death_modes(tmp_path):
    with pytest.raises(ValueError, match="kill/exit"):
        chaos_sweep(
            ServerTarget(battery=default_battery(jobs=1)),
            workdir=str(tmp_path),
            modes=("stall",),
        )


def _start_armed(tmp_path, spec, *extra):
    """A server subprocess with a crashpoint spec armed in its env."""
    env = _env()
    env[ENV_SPECS] = spec
    env[ENV_SCOPE] = "main"
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--dir", str(tmp_path),
        "--port", "0",
        "--concurrency", "1",
        "--no-isolation",
        *extra,
    ]
    return subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env
    )


class TestCompactionSeamKills:
    """kill -9 inside store GC must never cost a verdict or a ledger
    completion: the atomic-rename compaction leaves old bytes or new
    bytes, and a restarted server answers everything from the store."""

    def _kill_cycle_then_recover(self, tmp_path, point):
        proc = _start_armed(
            tmp_path, f"{point}:1:kill", "--store-retain", "1"
        )
        digests = {}
        try:
            client = _client(tmp_path, proc)
            first = client.submit(_probe(50, "seam-a"), wait=True)
            assert first["status"] == "done"
            digests[first["id"]] = first["result"]["digest"]
            # The second stored verdict pushes the store past retain=1;
            # GC runs, hits the armed crashpoint, and the process dies
            # mid-completion.
            with pytest.raises(ServerGone):
                client.submit(_probe(51, "seam-b"), wait=True)
            proc.wait(timeout=30)
            assert proc.returncode in (-9, 137), proc.returncode
        finally:
            _stop(proc)

        proc = _start_armed(tmp_path, "", "--store-retain", "1")
        try:
            client = _client(tmp_path, proc)
            for job in (_probe(50, "seam-a"), _probe(51, "seam-b")):
                done = client.submit(job, wait=True)
                assert done["status"] == "done", done
                expected = digests.get(done["id"])
                if expected is not None:
                    assert done["result"]["digest"] == expected
        finally:
            _stop(proc)
        counts = _ledger_done_counts(str(tmp_path))
        assert all(count <= 1 for count in counts.values()), counts

    def test_kill_before_compaction(self, tmp_path):
        self._kill_cycle_then_recover(tmp_path, "serve.store.compact.pre")

    def test_kill_before_rename(self, tmp_path):
        self._kill_cycle_then_recover(
            tmp_path, "serve.store.compact.rename.pre"
        )

    def test_kill_after_rename(self, tmp_path):
        self._kill_cycle_then_recover(
            tmp_path, "serve.store.compact.post"
        )
