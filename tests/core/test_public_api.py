"""Public-API sanity: exports exist, __all__ is accurate, version set,
and the engine imports nothing of the drivers or fronts built on it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.src_lines import LAYERS, PACKAGE, layer_of

#: The packages with exports; each ``__init__`` only names where they
#: live (an ``_EXPORTS`` table), so importing it loads none of them.
PACKAGES = [
    "repro",
    "repro.core",
    "repro.models",
    "repro.layerings",
    "repro.protocols",
    "repro.tasks",
    "repro.analysis",
    "repro.serve",
    "repro.lint",
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


# -- layers ------------------------------------------------------------------


def _module_path(name: str) -> str:
    """The path under ``src/repro`` of the module *name* (``repro...``)."""
    parts = name.split(".")[1:]
    if PACKAGE.joinpath(*parts).is_dir():
        parts.append("__init__")
    return "/".join(parts) + ".py"


def _module_level_imports(path: Path):
    """The ``repro`` modules *path* imports when it is loaded (not inside
    a function or an ``if``), with ``from package import submodule``
    naming the submodule."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if not module.startswith("repro"):
                continue
            yield module
            for alias in node.names:
                name = f"{module}.{alias.name}"
                parts = name.split(".")[1:]
                if (PACKAGE.joinpath(*parts).is_dir()
                        or PACKAGE.joinpath(*parts).with_suffix(".py").is_file()):
                    yield name


def test_every_module_level_import_points_down():
    order = list(LAYERS)
    upward = []
    for path in sorted(PACKAGE.rglob("*.py")):
        own = layer_of(path.relative_to(PACKAGE).as_posix())
        for name in _module_level_imports(path):
            layer = layer_of(_module_path(name))
            if order.index(layer) > order.index(own):
                where = path.relative_to(PACKAGE)
                upward.append(f"{where} ({own}) -> {name} ({layer})")
    assert not upward


def _fresh_modules(script: str) -> list[str]:
    """The modules loaded by a fresh interpreter that runs *script*."""
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    script += "\nimport sys\nprint(*sorted(sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.splitlines()[-1].split()


_CHECK_ALL = """
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.floodset import FloodSet
from repro.core.checker import ConsensusChecker

system = StSynchronousLayering(SynchronousModel(FloodSet(rounds=2), n=3, t=1))
assert ConsensusChecker(system).check_all(system.model).satisfied
"""

_TASK_CHECK_ALL = """
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.tasks import DecideOwnInput
from repro.tasks.catalog import identity_task
from repro.tasks.checker import TaskChecker

layering = PermutationLayering(AsyncMessagePassingModel(DecideOwnInput(), 3))
assert TaskChecker(layering, identity_task(3)).check_all(layering.model).satisfied
"""

ENGINE_RUNS = {
    **{package: f"import {package}" for package in (
        "repro", "repro.core", "repro.models", "repro.layerings",
        "repro.protocols", "repro.tasks",
    )},
    # The contract checks run inside the search: no linter either.
    "ConsensusChecker.check_all": _CHECK_ALL,
    "TaskChecker.check_all": _TASK_CHECK_ALL,
}


@pytest.mark.parametrize("run", ENGINE_RUNS)
def test_the_engine_loads_no_driver_or_front(run):
    """A fresh interpreter that imports an engine package, or runs a
    sequential sweep, loads no module above the engine layer and no
    ``multiprocessing``."""
    loaded = _fresh_modules(ENGINE_RUNS[run])
    above = [
        name for name in loaded
        if name.split(".")[0] == "repro"
        and layer_of(_module_path(name)) in ("drivers", "fronts")
    ]
    assert not above
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize(
    "module", ["repro.core.state", "repro.resilience.budget"]
)
def test_a_bottom_module_loads_no_engine_module(module):
    """A fresh interpreter that imports a bottom-layer module loads only
    the bottom layer and the packages on the way, whose ``__init__``
    imports nothing of the engine."""
    loaded = [
        name for name in _fresh_modules(f"import {module}")
        if name.split(".")[0] == "repro" and name not in PACKAGES
    ]
    assert module in loaded
    assert [
        name for name in loaded if layer_of(_module_path(name)) != "bottom"
    ] == []


#: What ``import repro.cli`` must not load: the pool, the server's event
#: loop, and the modules of the subcommands it does not run.
_NOT_AT_CLI_IMPORT = (
    "multiprocessing", "asyncio", "repro.serve", "repro.tasks",
    "repro.lint.flow_rules", "repro.lint.callgraph", "repro.lint.summaries",
)


def _under(name: str, roots) -> bool:
    return any(name == root or name.startswith(root + ".") for root in roots)


def test_importing_the_cli_loads_only_the_cli():
    """A fresh ``import repro.cli`` loads at most 25 ``repro`` modules,
    none of the pool, the server or a subcommand's driver."""
    loaded = _fresh_modules("import repro.cli")
    assert [name for name in loaded if _under(name, _NOT_AT_CLI_IMPORT)] == []
    assert len([name for name in loaded if _under(name, ["repro"])]) <= 25


def test_a_sequential_cli_run_loads_no_pool():
    loaded = _fresh_modules(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(['impossibility', '--n', '2']) == 0"
    )
    assert "repro.analysis.impossibility" in loaded
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_served_from_its_submodule(package):
    """Each name of a package's ``_EXPORTS`` table is the object its
    submodule defines under that name, and ``__all__`` names exactly
    the table."""
    module = importlib.import_module(package)
    names = [name for names in module._EXPORTS.values() for name in names]
    exported = [name for name in module.__all__ if name != "__version__"]
    assert sorted(exported) == sorted(set(names)) == sorted(names)
    for where, defined in module._EXPORTS.items():
        source = importlib.import_module(where)
        for name in defined:
            assert getattr(module, name) is getattr(source, name), name


def test_the_top_level_names_are_served_on_first_use():
    """``repro`` and ``repro.core`` hold a table, not the names: each is
    imported from its submodule on first use and is that object."""
    import repro
    import repro.core
    from repro.core.checker import ConsensusChecker
    from repro.resilience.budget import Budget

    assert repro.ConsensusChecker is ConsensusChecker
    assert repro.core.ConsensusChecker is ConsensusChecker
    assert repro.Budget is Budget
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        repro.nonesuch  # noqa: B018


def test_the_layer_table_files_the_infrastructure_above_the_engine():
    infrastructure = [
        "repro.resilience.pool", "repro.resilience.journal",
        "repro.resilience.frames", "repro.resilience.wire",
        "repro.resilience.retry", "repro.resilience.chaos",
        "repro.analysis", "repro.analysis.campaign", "repro.serve",
        "repro.lint", "repro.cli",
    ]
    layers = {layer_of(_module_path(name)) for name in infrastructure}
    assert layers <= {"drivers", "fronts"}


def test_pooled_check_all_equals_the_sequential_one():
    """``check_all(workers=2)`` loads the pool on demand and returns the
    sequential report."""
    from repro.core.checker import ConsensusChecker
    from repro.layerings.st_synchronous import StSynchronousLayering
    from repro.models.sync import SynchronousModel
    from repro.protocols.floodset import FloodSet

    system = StSynchronousLayering(SynchronousModel(FloodSet(rounds=2), n=3, t=1))
    sequential = ConsensusChecker(system).check_all(system.model)
    pooled = ConsensusChecker(system).check_all(system.model, workers=2)
    assert sequential.satisfied
    assert pooled == sequential
