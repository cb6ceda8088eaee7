"""What a cold ``repro`` process imports, per kind of command.

Each test starts a fresh interpreter and lists ``sys.modules``; nothing
is timed, so host noise cannot fail them.

* ``repro --version`` imports no command: only ``repro``, ``repro.cli``
  and ``repro.errors``.
* ``repro check`` and ``repro scenario run`` import neither the lab, the
  HTTP service, the E01..E16 runners, the Section 5 analysis nor the
  history reader.
* After the benchmark's set-up imports, a ``lab sweep`` loads only the
  static checks (its submit gate), the sweep-table renderer and the
  CLI's lab module, standard library included.  Everything else a sweep
  runs is loaded at set-up, so none of that work moves into the timed
  sweeps.
* ``lab index``, ``merge``, ``diff`` and ``history`` (with
  ``--metric`` and ``--flag-regressions`` too) read only a lab root's
  store and run files, and load no scenario, planner, memory, mapping,
  hardware or processor module.
* ``window`` is closed-form: it loads the windows, the mappings, the
  Section 5 models, the table renderer and the CLI, and no simulator.
* The result schema, which the history reader and the store-only
  commands read metric directions from, loads without any other
  ``repro`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"

RUN_MAIN = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exit:
        code = exit.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: perfbench's child process imports these as its set-up, then times
#: each ``lab sweep`` call.
SETUP_THEN_SWEEP = """
import contextlib, io, json, sys
import repro.cli, repro.scenarios
from repro.lab import ArtifactStore
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(
        ["lab", "sweep", sys.argv[1], "--backend", "serial", "--root", sys.argv[2]]
    )
print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
"""


def _run(script: str, *args: str) -> tuple[int, list[str]]:
    """Exit code and module list a fresh interpreter reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    env.pop("REPRO_LAB_ROOT", None)
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        check=True,
    )
    report = json.loads(completed.stdout.splitlines()[-1])
    return report["code"], report["modules"]


def _within(name: str, packages) -> bool:
    return any(name == p or name.startswith(f"{p}.") for p in packages)


def test_version_imports_no_command():
    code, modules = _run(RUN_MAIN, "--version")
    assert code == 0
    assert {m for m in modules if _within(m, ["repro"])} == {
        "repro",
        "repro.cli",
        "repro.errors",
    }


OFF_PATH = [
    "repro.lab",
    "repro.serve",
    "repro.report.experiments",
    "repro.analysis",
    "repro.obs.history",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "examples/scenario_matched_stride12.json"],
        ["scenario", "run", "examples/scenario_matched_stride12.json"],
    ],
    ids=["check", "scenario-run"],
)
def test_single_spec_commands_skip_the_lab(argv):
    code, modules = _run(RUN_MAIN, *argv)
    assert code == 0
    assert [m for m in modules if _within(m, OFF_PATH)] == []


@pytest.mark.parametrize(
    "grid", ["scenario_program_grid.json", "scenario_figure6_grid.json"]
)
def test_a_sweep_after_set_up_loads_only_its_own_code(grid, tmp_path):
    code, added = _run(
        SETUP_THEN_SWEEP, str(EXAMPLES / grid), str(tmp_path / "lab")
    )
    assert code == 0
    allowed = ["repro.check", "repro.report.sweeps", "repro.cli.lab"]
    if sys.version_info < (3, 11):
        # The process's first ArgumentParser looks up its translations,
        # which imports ``locale``; from 3.11 on, ``subprocess`` has
        # imported it at set-up.
        allowed.append("locale")
    assert [m for m in added if not _within(m, allowed)] == []


#: The simulator's packages: what a command that only reads a store
#: never needs.
SIMULATOR = [
    "repro.scenarios",
    "repro.core",
    "repro.mappings",
    "repro.memory",
    "repro.hardware",
    "repro.processor",
]


@pytest.fixture(scope="module")
def swept_root(tmp_path_factory):
    """A lab root holding two runs of one small grid."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("store-only") / "lab"
    grid = str(EXAMPLES / "scenario_unmatched_grid.json")
    for _ in range(2):
        argv = ["lab", "sweep", grid, "--backend", "serial"]
        assert main([*argv, "--root", str(root)]) == 0
    return root


@pytest.mark.parametrize(
    "command",
    [
        "index",
        "merge",
        "diff",
        "history",
        "history-metric",
        "history-flag-regressions",
    ],
)
def test_store_only_lab_commands_load_no_simulator(
    command, swept_root, tmp_path
):
    runs = sorted(path.name for path in (swept_root / "runs").iterdir())
    root = ["--root", str(swept_root)]
    argv = {
        "index": ["lab", "index", *root],
        "merge": ["lab", "merge", str(swept_root), "--root", str(tmp_path)],
        "diff": ["lab", "diff", *runs, *root],
        "history": ["lab", "history", *root],
        "history-metric": ["lab", "history", "--metric", "latency", *root],
        "history-flag-regressions": [
            "lab", "history", "--flag-regressions", *root
        ],
    }[command]
    code, modules = _run(RUN_MAIN, *argv)
    # Two sweeps stamped in the same second are ordered by their run
    # ids' random suffix, so the gate may take the cold sweep for the
    # latest and flag its cache-hit rate: exit 1 is a full read too.
    assert code in ((0, 1) if command == "history-flag-regressions" else (0,))
    assert [m for m in modules if _within(m, SIMULATOR)] == []


def test_window_loads_only_the_closed_form_models():
    code, modules = _run(RUN_MAIN, "window", "--lam", "7")
    assert code == 0
    allowed = [
        "repro.core",
        "repro.mappings",
        "repro.analysis",
        "repro.report.tables",
        "repro.report.figures",
        "repro.cli",
    ]
    loaded = [m for m in modules if _within(m, ["repro"])]
    assert [
        m
        for m in loaded
        if not _within(m, allowed)
        and m not in ("repro", "repro.errors", "repro.report")
    ] == []
    assert "repro.analysis.validation" not in loaded


def test_the_result_schema_loads_alone():
    _code, modules = _run(
        "import json, sys, repro.result_schema\n"
        "print(json.dumps({'code': 0, 'modules': sorted(sys.modules)}))"
    )
    assert [m for m in modules if _within(m, ["repro"])] == [
        "repro",
        "repro.result_schema",
    ]
