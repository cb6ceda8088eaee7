"""Every ``--help``, usage and ``--version`` line of ``repro`` is pinned.

``tests/fixtures/cli_help.json`` holds what the CLI printed when it was
one module that built every command's parser on each call: ``repro
--help``, the help of each command and sub-command, ``repro
--version``, and the exit status and usage lines of four parse errors.
It was captured with Python 3.11 at ``COLUMNS=80``.  The CLI now builds
only the invoked command's arguments, and these tests hold its output
to the fixture byte for byte.

Python 3.10's argparse titles the options section ``optional
arguments:`` where 3.11 and later print ``options:``; that heading is
the one difference mapped.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "cli_help.json").read_text()
)


def _normalise(text: str) -> str:
    return re.sub(r"^optional arguments:$", "options:", text, flags=re.M)


def _exit(argv, capsys, monkeypatch) -> tuple[int, str, str]:
    """Run ``main(argv)`` at 80 columns until argparse exits."""
    monkeypatch.setenv("COLUMNS", str(FIXTURE["columns"]))
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


@pytest.mark.parametrize(
    "command", sorted(FIXTURE["help"]), ids=lambda name: name or "repro"
)
def test_help_is_unchanged(command, capsys, monkeypatch):
    code, out, err = _exit([*command.split(), "--help"], capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert _normalise(out) == FIXTURE["help"][command]


def test_version_is_unchanged(capsys, monkeypatch):
    code, out, err = _exit(["--version"], capsys, monkeypatch)
    assert (code, out, err) == (0, FIXTURE["version"], "")


@pytest.mark.parametrize(
    "argv", sorted(FIXTURE["errors"]), ids=lambda argv: argv or "repro"
)
def test_usage_errors_are_unchanged(argv, capsys, monkeypatch):
    """A dispatcher that registered only the invoked command would print
    a shorter top-level usage for ``lab sweep g.json --bogus``."""
    code, out, err = _exit(argv.split(), capsys, monkeypatch)
    *usage, error = err.splitlines(keepends=True)
    assert out == ""
    assert "error:" in error
    assert code == FIXTURE["errors"][argv]["status"]
    assert "".join(usage) == FIXTURE["errors"][argv]["usage"]


def test_fixture_covers_every_command():
    from repro.cli import COMMANDS
    from repro.cli.lab import SUBCOMMANDS as LAB
    from repro.cli.scenario import SUBCOMMANDS as SCENARIO

    expected = {"", *COMMANDS}
    expected |= {f"lab {name}" for name in LAB}
    expected |= {f"scenario {name}" for name in SCENARIO}
    assert set(FIXTURE["help"]) == expected
