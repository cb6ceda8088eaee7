"""``repro scenario run|list|diff``: declarative specs in, metrics out."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import ROOT_HELP, add_commands, positive_int
from repro.obs import Tracer, write_chrome_trace
from repro.report.tables import render_table
from repro.scenarios import (
    CATEGORIES,
    TIMELINE_FIELDS,
    example_params,
    kinds,
    load_scenarios,
    simulate,
    summary,
    validate_spec_kinds,
)

#: ``repro scenario`` sub-command -> its one-line help.
SUBCOMMANDS = {
    "run": "simulate scenario specs (or grids) from JSON files",
    "list": "show every registered mapping/workload/drive/program kind",
    "diff": "simulate two design points and compare them metric by "
    "metric (exit 1 on regression)",
}


def configure(command: str, parser: argparse.ArgumentParser, argv):
    """Register the sub-commands and add the invoked one's arguments."""
    invoked = add_commands(parser, "scenario_command", SUBCOMMANDS, argv)
    if invoked is not None:
        name, leaf, _rest = invoked
        if name == "run":
            _run_arguments(leaf)
        elif name == "diff":
            leaf.add_argument("file_a", help="baseline spec (one JSON spec)")
            leaf.add_argument("file_b", help="candidate spec (one JSON spec)")
    return command_scenario


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "files", nargs="+", help="JSON files: one spec, a grid, or a list"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print results as a JSON array instead of tables",
    )
    parser.add_argument(
        "--lab",
        action="store_true",
        help="execute through the lab (parallel, content-addressed cache)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help="worker processes for --lab (default: one per CPU)",
    )
    parser.add_argument(
        "--force", action="store_true", help="with --lab: ignore the cache"
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a Chrome/Perfetto trace of each simulation "
        "(multiple specs get -1, -2, ... suffixes); open in ui.perfetto.dev",
    )


def command_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        for category in CATEGORIES:
            print(f"{category} kinds:")
            for kind in kinds(category):
                example = example_params(category, kind)
                print(f"  {kind:20s} {summary(category, kind)}")
                print(f"  {'':20s} example params: {example}")
            print()
        return 0

    if args.scenario_command == "diff":
        from repro.scenarios import diff_results, render_scenario_diff

        sides = []
        for filename in (args.file_a, args.file_b):
            path = Path(filename)
            if not path.is_file():
                print(f"no such scenario file: {filename}", file=sys.stderr)
                return 2
            loaded = load_scenarios(path.read_text())
            if len(loaded) != 1:
                print(
                    f"{filename} holds {len(loaded)} design points; "
                    "`scenario diff` compares exactly one per file",
                    file=sys.stderr,
                )
                return 2
            sides.append(loaded[0])
        spec_a, spec_b = sides
        result_a, result_b = simulate(spec_a), simulate(spec_b)
        diff = diff_results(
            result_a.to_dict(),
            result_b.to_dict(),
            label_a=spec_a.name or args.file_a,
            label_b=spec_b.name or args.file_b,
        )
        print(render_scenario_diff(diff))
        return 1 if diff.has_regressions else 0

    specs = []
    for filename in args.files:
        path = Path(filename)
        if not path.is_file():
            print(f"no such scenario file: {filename}", file=sys.stderr)
            return 2
        specs.extend(load_scenarios(path.read_text()))
    if not specs:
        print("no scenarios found in the given files", file=sys.stderr)
        return 2
    for spec in specs:
        validate_spec_kinds(spec)

    if args.trace and args.lab:
        print(
            "--trace needs the in-process simulator; drop --lab "
            "(lab jobs run in worker processes, which cannot stream "
            "trace events back)",
            file=sys.stderr,
        )
        return 2

    if args.lab:
        from repro.lab import (
            ArtifactStore,
            default_lab_root,
            run_jobs,
            scenario_jobs,
        )

        jobs = scenario_jobs(specs, progress=print)
        with ArtifactStore(args.root or default_lab_root()) as store:
            report = run_jobs(
                jobs,
                store=store,
                workers=args.jobs,
                force=args.force,
                progress=print,
            )
        print(
            f"run {report.run_id}: {len(report.outcomes)} scenarios, "
            f"{report.cache_hits} cache hits, {report.executed} executed"
        )
        print(f"manifest: {store.runs_dir / report.run_id / 'manifest.json'}")
        return 1 if report.failures else 0

    if args.trace:
        trace_base = Path(args.trace)
        info = sys.stderr if args.as_json else sys.stdout
        results = []
        for index, spec in enumerate(specs):
            tracer = Tracer()
            results.append((spec, simulate(spec, tracer=tracer)))
            if len(specs) == 1:
                target = trace_base
            else:
                target = trace_base.with_name(
                    f"{trace_base.stem}-{index + 1}{trace_base.suffix}"
                )
            written = write_chrome_trace(tracer, target)
            print(
                f"trace: {written} ({len(tracer.events)} events, "
                f"{spec.describe()})",
                file=info,
            )
    else:
        results = [(spec, simulate(spec)) for spec in specs]
    if args.as_json:
        print(
            json.dumps(
                [
                    {"spec": spec.to_dict(), "result": result.to_dict()}
                    for spec, result in results
                ],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for spec, result in results:
        print(f"== {spec.describe()}")
        print(render_table(["metric", "value"], result.metric_rows()))
        if result.timeline:
            print()
            print(
                render_table(
                    list(TIMELINE_FIELDS),
                    [list(row) for row in result.timeline],
                )
            )
        print()
    return 0
