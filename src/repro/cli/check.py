"""``repro check``: static conflict/hazard analysis of scenario specs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.check import check_document


def configure(command: str, parser: argparse.ArgumentParser, argv):
    """Add ``repro check``'s arguments to its parser; returns its handler."""
    parser.add_argument(
        "files", nargs="+", help="JSON files: one spec, a grid, or a list"
    )
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print findings as JSON instead of the line grammar",
    )
    return command_check


def command_check(args: argparse.Namespace) -> int:
    """``repro check``: every finding for every file, exit 1 on errors.

    Parse failures are findings (``SL304``), not exceptions — one
    broken file still reports, and still checks its siblings.  Exit 2
    is reserved for usage errors (a missing file), matching the other
    subcommands.
    """
    reports = []
    for filename in args.files:
        path = Path(filename)
        if not path.is_file():
            print(f"no such scenario file: {filename}", file=sys.stderr)
            return 2
        reports.append(
            (filename, check_document(path.read_text(), source=filename))
        )
    if args.as_json:
        print(
            json.dumps(
                [
                    dict(report.to_dict(), file=filename)
                    for filename, report in reports
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if any(report.has_errors for _, report in reports) else 0
    total = {"error": 0, "warn": 0, "info": 0}
    for _filename, report in reports:
        for finding in report.findings:
            print(finding.render())
        for severity in total:
            total[severity] += report.count(severity)
    print(
        f"{sum(total.values())} finding(s): {total['error']} error(s), "
        f"{total['warn']} warning(s), {total['info']} info"
    )
    return 1 if any(report.has_errors for _, report in reports) else 0
