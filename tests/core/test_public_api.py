"""Public-API sanity: exports exist, __all__ is accurate, version set."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.models",
    "repro.layerings",
    "repro.protocols",
    "repro.tasks",
    "repro.analysis",
    "repro.resilience",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} must declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_no_duplicate_exports():
    for package in PACKAGES:
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert len(exported) == len(set(exported)), package


def test_submodules_importable():
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def test_readme_quickstart_executes():
    """The README's quickstart snippet must keep working verbatim."""
    from repro import (
        ConsensusChecker,
        FloodSet,
        StSynchronousLayering,
        SynchronousModel,
    )

    doomed = SynchronousModel(FloodSet(rounds=1), n=3, t=1)
    report = ConsensusChecker(StSynchronousLayering(doomed)).check_all(doomed)
    assert report.verdict.value == "agreement-violation"

    safe = SynchronousModel(FloodSet(rounds=2), n=3, t=1)
    assert ConsensusChecker(StSynchronousLayering(safe)).check_all(
        safe
    ).satisfied


_CHECK_WITHOUT_THE_LINTER = """
import sys
import repro.core
from repro.analysis.sync_lower_bound import make_st_system
from repro.protocols.floodset import FloodSet

system = make_st_system(FloodSet(2), 3, 1)
report = repro.core.ConsensusChecker(system).check_all(system.model)
print(report.verdict.name)
print(*sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "lint"]))
"""


def test_the_checker_runs_its_contract_checks_without_the_linter():
    """The contract checks belong to the engine: a fresh interpreter that
    checks a system, contract checks on, never imports ``repro.lint``."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHECK_WITHOUT_THE_LINTER],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines() == ["SATISFIED", ""]
