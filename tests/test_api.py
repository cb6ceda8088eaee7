"""Public API surface checks.

Guards the package contract a downstream user relies on: everything
advertised in ``__all__`` is importable, carries a docstring, and the
top-level quickstart from the package docstring actually works.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.mappings",
    "repro.memory",
    "repro.hardware",
    "repro.processor",
    "repro.analysis",
    "repro.workloads",
    "repro.report",
    "repro.lab",
    "repro.scenarios",
    "repro.obs",
    "repro.check",
]

#: Packages that import some of their ``__all__`` on first use (PEP 562).
LAZY_PACKAGES = [
    "repro",
    "repro.report",
    "repro.lab",
    "repro.scenarios",
    "repro.obs",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        if name.startswith("__"):
            continue
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_dir_lists_lazy_exports(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_name():
    """``from repro import *`` in a fresh interpreter binds all of ``__all__``."""
    import repro

    script = (
        "import json\n"
        "from repro import *\n"
        "import repro\n"
        "print(json.dumps([n for n in repro.__all__ if n not in globals()]))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(completed.stdout) == []


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_items_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        if name.startswith("__"):
            continue
        item = getattr(package, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not inspect.getdoc(item):
                undocumented.append(name)
    assert not undocumented, f"{package_name}: no docstring on {undocumented}"


def test_package_version():
    import repro

    assert repro.__version__ == "1.8.0"


def test_module_docstrings():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    missing = []
    for path in root.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")):
            missing.append(str(path.relative_to(root)))
    assert not missing, f"modules without docstrings: {missing}"


def test_quickstart_from_package_docstring():
    """The exact snippet advertised in ``repro.__doc__`` must run."""
    from repro import AccessPlanner, MatchedDesign, VectorAccess
    from repro.memory import MemoryConfig, MemorySystem

    design = MatchedDesign.recommended(lambda_exponent=7, t=3)
    planner = AccessPlanner(design.mapping(), design.t)
    plan = planner.plan(VectorAccess(base=16, stride=12, length=128))
    result = MemorySystem(MemoryConfig.matched(3, design.s)).run_plan(plan)
    assert result.conflict_free and result.latency == 8 + 128 + 1


def test_error_hierarchy_rooted():
    from repro import errors

    for name in errors.__dict__:
        item = getattr(errors, name)
        if inspect.isclass(item) and issubclass(item, Exception):
            if item is not errors.ReproError:
                assert issubclass(item, errors.ReproError), name
