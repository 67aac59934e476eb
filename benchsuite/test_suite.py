"""Smoke test of the benchmark itself.

    python -m pytest benchsuite -q

Runs every workload at ``--smoke`` size, end to end and traced, checks
the result line against ``BENCHMARK.json``, checks that seeds change
only the order of the work and that a failed serve request is counted,
and exercises the compare tool on tiny result files, separate and
interleaved.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(ROOT / "src"))


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [
        sys.executable, "benchsuite/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
        *extra,
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_schema(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchsuite"]
    assert SPEC["command"][1] == "benchsuite/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    check_schema(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    if workload == "serve-n2":
        # Every request the server took is accounted for as an op.
        details = json.loads(proc.stdout.splitlines()[-2].removeprefix("details: "))
        assert details["server"]["submitted"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload, tmp_path):
    out = tmp_path / "trace.json"
    result = result_of(run(workload, 1, "--trace-out", str(out)))
    check_schema(result, SPEC["per_layer"])
    document = json.loads(out.read_text())
    ops = [span for span in document["spans"] if span["name"] == "op"]
    assert len(ops) == document["ops"] >= 1
    assert all(span["end_ns"] >= span["start_ns"] for span in document["spans"])
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchsuite",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seeds_change_the_order_of_the_work_not_its_amount(tmp_path):
    from benchsuite.workloads import WORKLOADS as CLASSES

    for name in ("valence-per3", "sweep-st", "campaign-par"):
        orders = [
            item
            for seed in (1, 2, 3)
            for item in islice(CLASSES[name](seed, False, tmp_path).items(), 4)
        ]
        assert len({repr(sorted(item)) for item in orders}) == 1, name
        assert len({repr(item) for item in orders}) > 1, name
    serve = CLASSES["serve-n2"](5, False, tmp_path)
    created = []
    for job, is_new in islice(serve.plan(0), 3 * len(serve.pairs)):
        assert is_new == (job not in created)
        created += [job] if is_new else []
    assert Counter((j["protocol"], j["model"]) for j in created) == Counter(serve.pairs)


def test_a_request_error_is_a_failed_op(tmp_path, monkeypatch):
    from benchsuite import workloads
    from repro.serve.client import ProtocolError

    class Garbled:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, job, wait=False):
            raise ProtocolError("response line is not JSON")

    monkeypatch.setattr(workloads, "ServeClient", Garbled)
    serve = workloads.ServeN2(1, True, tmp_path)
    serve.endpoint = ("127.0.0.1", 0)
    out: list = []
    stopped: set = set()
    serve.client_loop(0, serve.plan(0), time.perf_counter() + 60, out, stopped)
    assert [op.ok for op in out] == [False]
    assert stopped == {0}


def test_reference_speed_scales_by_the_samples_around_a_piece():
    from benchsuite.reference import (
        REFERENCE_SECONDS, HostSpeed, cold_start_at_reference,
    )

    with HostSpeed(2) as speed:
        assert len(speed.helpers) == 1
        factor = speed.mark()
        assert factor == pytest.approx(
            REFERENCE_SECONDS / ((speed.samples[-2] + speed.samples[-1]) / 2)
        )
        assert speed.factors == [factor]
    assert speed.helpers == []
    seconds, at_reference = cold_start_at_reference(lambda: 0.25)
    assert seconds == 0.25 and at_reference > 0


def fake_document(path: Path, workload: str, scale: float,
                  session: dict | None = None) -> None:
    from benchsuite.__main__ import bench_document

    runs = []
    for i in range(10):
        wobble = 1 + 0.01 * i
        runs.append({
            "seed": i, "correct": True, "attempted": 10, "failed": 0,
            "metrics": {
                "setup_s": 0.3 * wobble,
                "ops_per_s": 10 / scale * wobble,
                "op_p50_ms": 100 * scale * wobble,
                "peak_rss_mb": 40 * wobble,
            },
            "details": {
                "states_per_s": 1000 / scale,
                "op_ms": {"p50": 100.0, "p99": 120.0},
                "raw": {"op_p50_ms": 150 * scale * wobble},
                "host_speed": {"median": 0.7},
            },
        })
    document = bench_document(workload, runs, 1.0, True)
    if session is not None:
        document["session"] = session
    path.write_text(json.dumps(document))


def compare_rows(base: Path, new: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchsuite", "compare", str(base), str(new)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[1]: line for line in proc.stdout.splitlines()[1:]}
    assert set(rows) == {m["name"] for m in SPEC["end_to_end"]}
    return rows


def test_compare_gives_better_or_worse_only_to_interleaved_sets(tmp_path):
    fake_document(tmp_path / "base.json", "sweep-st", 1.0)
    fake_document(tmp_path / "new.json", "sweep-st", 1.5)
    rows = compare_rows(tmp_path / "base.json", tmp_path / "new.json")
    assert "unresolved" in rows["op_p50_ms"] and "unresolved" in rows["ops_per_s"]
    assert "unchanged" in rows["setup_s"] and "unchanged" in rows["peak_rss_mb"]

    fake_document(tmp_path / "base.json", "sweep-st", 1.0, {"id": "s", "side": "base"})
    fake_document(tmp_path / "new.json", "sweep-st", 1.5, {"id": "s", "side": "new"})
    rows = compare_rows(tmp_path / "base.json", tmp_path / "new.json")
    assert "worse" in rows["op_p50_ms"] and "worse" in rows["ops_per_s"]
    assert "0/10" in rows["op_p50_ms"]
    assert "unchanged" in rows["setup_s"] and "unchanged" in rows["peak_rss_mb"]


def test_verdict_rules():
    from benchsuite.__main__ import verdict
    from benchsuite.stats import summary

    base = summary([100, 101, 102, 103])
    for paired in (False, True):
        assert verdict(base, summary([100, 101, 102, 103]), "lower", 0.1, paired)[0] == "unchanged"
        assert verdict(base, summary([150]), "lower", 0.1, paired)[0] == "unresolved"
        noisy = summary([60, 90, 120, 150])
        assert verdict(base, noisy, "lower", 0.1, paired)[0] == "unresolved"
    # Separate sets never read better or worse.
    assert verdict(base, summary([120, 121, 122, 123]), "lower", 0.1, False)[0] == "unresolved"
    assert verdict(base, summary([120, 121, 122, 123]), "lower", 0.1, True)[0] == "worse"
    assert verdict(base, summary([120, 121, 122, 123]), "higher", 0.1, True)[0] == "unresolved"
    # A gain needs ten pairs, nine of them won, and a move past the
    # base's own quartile distance.
    base10 = summary([100, 101, 102, 103, 100, 101, 102, 103, 100, 101])
    faster = summary([95, 96, 97, 98, 95, 96, 97, 98, 95, 104])
    assert verdict(base10, faster, "lower", 0.1, True)[0] == "better"
    assert verdict(base10, faster, "lower", 0.1, False)[0] == "unchanged"
    assert verdict(base, summary([95, 96, 97, 98]), "lower", 0.1, True)[0] == "unchanged"
    mixed = summary([95, 104, 97, 104, 95, 104, 97, 98, 95, 96])
    assert verdict(base10, mixed, "lower", 0.1, True)[0] == "unchanged"
