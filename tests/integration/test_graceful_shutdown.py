"""Graceful shutdown: SIGTERM/SIGINT mid-campaign saves and resumes.

The acceptance bar (ISSUE 6, satellite 3): a campaign interrupted by
SIGTERM or KeyboardInterrupt must write a final checkpoint and exit 130,
and ``--resume`` must then finish with stdout byte-identical to an
uninterrupted run — in both sequential and ``--workers 4`` modes.

The interruption lands at a *deterministic* place: a ``stall`` crashpoint
parks the driver inside the first ``campaign.unit.finish`` hit, the trace
file tells us the process got there, and only then do we signal it.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.crashpoint import ENV_SCOPE, ENV_SPECS, ENV_TRACE
from repro.resilience.journal import is_journal

SRC = str(Path(__file__).resolve().parents[2] / "src")

SEQUENTIAL_ARGV = ["lower-bound", "--n", "3", "--t", "1"]
POOLED_ARGV = ["impossibility", "--protocol", "quorum", "--n", "3",
               "--workers", "4"]

STALL = "campaign.unit.finish:1:stall:120"
POLL_DEADLINE = 120.0


def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Never inherit chaos arming from an outer harness.
    for var in (ENV_SPECS, ENV_TRACE, ENV_SCOPE):
        env.pop(var, None)
    env.update(extra or {})
    return env


def _run(argv, timeout=300):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException:
        # Ctrl-C or a timeout mid-test must not leave an orphan campaign.
        proc.kill()
        proc.wait()
        raise
    return subprocess.CompletedProcess(
        proc.args, proc.returncode, stdout, stderr
    )


def _interrupt_mid_campaign(argv, tmp_path, sig):
    """Start a checkpointed campaign, wait until it is provably inside
    the first unit-finish stall, signal it, and return (checkpoint path,
    completed process)."""
    ckpt = tmp_path / "campaign.ckpt"
    trace = tmp_path / "trace.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv, "--checkpoint", str(ckpt)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env({ENV_SPECS: STALL, ENV_TRACE: str(trace)}),
    )
    try:
        deadline = time.monotonic() + POLL_DEADLINE
        while time.monotonic() < deadline:
            if trace.exists() and "campaign.unit.finish" in trace.read_text():
                break
            if proc.poll() is not None:
                _, err = proc.communicate()
                raise AssertionError(
                    f"campaign exited early ({proc.returncode}) before the "
                    f"stall crashpoint:\n{err.decode(errors='replace')}"
                )
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never reached campaign.unit.finish")
        proc.send_signal(sig)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return ckpt, proc.returncode, stdout, stderr


class TestSequentialShutdown:
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_signal_saves_checkpoint_and_exits_130(self, tmp_path, sig):
        ckpt, code, _, stderr = _interrupt_mid_campaign(
            SEQUENTIAL_ARGV, tmp_path, sig
        )
        assert code == 130, stderr.decode(errors="replace")
        assert ckpt.exists() and is_journal(ckpt)
        assert b"interrupted" in stderr.lower()

    def test_resume_after_sigterm_is_byte_identical(self, tmp_path):
        baseline = _run(SEQUENTIAL_ARGV)
        assert baseline.returncode == 0, baseline.stderr.decode()
        ckpt, code, _, _ = _interrupt_mid_campaign(
            SEQUENTIAL_ARGV, tmp_path, signal.SIGTERM
        )
        assert code == 130
        resumed = _run([*SEQUENTIAL_ARGV, "--resume", str(ckpt)])
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout


class TestPooledShutdown:
    def test_resume_after_sigterm_is_byte_identical(self, tmp_path):
        baseline = _run(POOLED_ARGV)
        assert baseline.returncode == 0, baseline.stderr.decode()
        ckpt, code, _, stderr = _interrupt_mid_campaign(
            POOLED_ARGV, tmp_path, signal.SIGTERM
        )
        assert code == 130, stderr.decode(errors="replace")
        assert ckpt.exists() and is_journal(ckpt)
        resumed = _run([*POOLED_ARGV, "--resume", str(ckpt)])
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == baseline.stdout
