"""Command-line interface: plan accesses, inspect windows, run experiments.

Usage (also via ``python -m repro``)::

    repro plan --t 3 --s 4 --base 16 --stride 12 --length 128 --timeline
    repro plan --t 3 --s 4 --y 9 --stride 96 --length 128
    repro window --lam 7 --t 3 --unmatched
    repro survey --t 3 --s 4 --max-stride 32
    repro scenario run examples/scenario_matched_stride12.json
    repro scenario run examples/scenario_daxpy_program.json
    repro scenario run examples/scenario_daxpy_program.json --trace out.json
    repro scenario diff baseline.json candidate.json
    repro scenario list
    repro lab sweep examples/scenario_program_grid.json
    repro lab run --all --jobs 8
    repro lab run --ids E03 --param E03:lambda_exponent=8
    repro lab run --all --backend spool       # + `repro lab worker` shards
    repro lab worker .repro-lab/spool --max-idle 60
    repro lab worker .repro-lab/spool --max-jobs 6   # bounded, for CI
    repro lab serve --port 8642 --backend spool      # HTTP front door
    repro lab merge /mnt/worker-host/.repro-lab
    repro lab diff 20260729T120000Z-aaaa 20260729T130000Z-bbbb
    repro lab status --json
    repro lab status --metrics
    repro lab history --metric total_cycles --flag-regressions
    repro lab index --verify
    repro lab summarize --output SUMMARY.md

Every subcommand prints plain text; exit status is non-zero when an
experiment check fails, so the CLI slots into shell-based CI.

Each command group has its own module: :mod:`repro.cli.paper`
(``plan``, ``window``, ``survey``), :mod:`repro.cli.run`,
:mod:`repro.cli.check`, :mod:`repro.cli.scenario` and
:mod:`repro.cli.lab`.  :func:`main` builds a fresh parser per call that
registers every command by name and help, imports only the invoked
command's module, and lets it add arguments to the invoked (sub-)command
alone.  ``--help`` and the usage lines therefore list every command,
while ``repro --version`` imports no command at all, and a call builds
an ``ArgumentParser`` only for each command on its path (three for
``repro lab sweep``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Sequence

from repro.errors import ReproError

#: Every command -> (the module under ``repro.cli`` that implements it,
#: its one-line help), in the order ``repro --help`` lists them.
COMMANDS = {
    "plan": ("paper", "plan and simulate one vector access"),
    "window": ("paper", "show the conflict-free window of a design"),
    "survey": ("paper", "latency per stride for one design"),
    "lab": (
        "lab",
        "parallel experiment lab with content-addressed result caching",
    ),
    "scenario": (
        "scenario",
        "declarative machine + workload specs (JSON in, metrics out)",
    ),
    "check": (
        "check",
        "static conflict/hazard analysis of scenario specs "
        "(no simulation; exit 1 on error findings)",
    ),
    "run": ("run", "execute a vector-assembly file on the decoupled machine"),
}

#: The ``--root`` help of every command that opens a lab root.
ROOT_HELP = "lab root directory (default: $REPRO_LAB_ROOT or .repro-lab)"


def package_version() -> str:
    """The running package's version.

    ``repro.__version__`` is the single source: pyproject.toml derives
    the distribution metadata from it (``[tool.setuptools.dynamic]``),
    and the lab's cache keys embed it — so the version reported here is
    always the one addressing the cache and the code actually running,
    even when a source tree shadows an older installed distribution.
    """
    import repro

    return repro.__version__


def positive_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_commands(
    parser: argparse.ArgumentParser,
    dest: str,
    helps: dict[str, str],
    argv: Sequence[str],
) -> tuple[str, argparse.ArgumentParser, list[str]] | None:
    """Register sub-commands by name and help; build the invoked one.

    Returns ``(name, its parser, the arguments after it)`` for the
    sub-command ``argv`` invokes, so the caller adds arguments to that
    parser only, or None when ``argv`` names none (argparse then reports
    the missing or unknown command).  Every parser this is used on takes
    flags only, so the first token that is not an option is the
    sub-command argparse dispatches to.  Only that sub-command gets an
    ``ArgumentParser``; the others are registered as the name and help
    line that usage, ``--help`` and the invalid-choice error list, which
    read nothing else of a sub-command.
    """
    position = next(
        (i for i, token in enumerate(argv) if not token.startswith("-")), None
    )
    invoked = None if position is None else argv[position]
    commands = parser.add_subparsers(dest=dest, required=True)
    leaf = None
    for name, text in helps.items():
        if name == invoked:
            leaf = commands.add_parser(name, help=text)
        else:
            # What ``add_parser`` records for the help listing and the
            # choices, without the parser argparse never dispatches to.
            commands._name_parser_map[name] = None
            commands._choices_actions.append(
                commands._ChoicesPseudoAction(name, (), text)
            )
    if leaf is None:
        return None
    return invoked, leaf, list(argv[position + 1 :])


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Conflict-free vector access (Valero et al., ISCA 1992) — "
            "plan, simulate and reproduce"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    invoked = add_commands(
        parser,
        "command",
        {name: text for name, (_module, text) in COMMANDS.items()},
        argv,
    )
    handler = None
    if invoked is not None:
        name, command_parser, rest = invoked
        group = importlib.import_module(f"repro.cli.{COMMANDS[name][0]}")
        handler = group.configure(name, command_parser, rest)
    args = parser.parse_args(argv)
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away mid-print.
        sys.stderr.close()
        return 0
