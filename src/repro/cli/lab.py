"""``repro lab``: the experiment lab's ten sub-commands.

``run``, ``sweep``, ``merge``, ``status``, ``summarize``, ``index``,
``history`` and ``diff`` work on one lab root's store; ``worker``
serves a spool directory and ``serve`` the HTTP front door.  Only
``run``, ``status`` and ``summarize`` build the E01..E16/A1..A7 job
registry, so a sweep never imports the experiment runners.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import ROOT_HELP, add_commands, positive_int
from repro.errors import ConfigurationError
from repro.lab import (
    ArtifactStore,
    build_registry,
    default_lab_root,
    experiment_spec,
    recent_run_metrics,
    record_metrics,
    run_jobs,
    scenario_jobs,
    status_payload,
    summarize_cached,
)
from repro.report.tables import render_markdown, render_table


def configure(command: str, parser: argparse.ArgumentParser, argv):
    """Register the sub-commands and add the invoked one's arguments."""
    invoked = add_commands(
        parser,
        "lab_command",
        {name: text for name, (text, _arguments) in SUBCOMMANDS.items()},
        argv,
    )
    if invoked is not None:
        name, leaf, _rest = invoked
        SUBCOMMANDS[name][1](leaf)
    return command_lab


def _run_arguments(parser: argparse.ArgumentParser) -> None:
    selection = parser.add_mutually_exclusive_group()
    selection.add_argument(
        "--all",
        action="store_true",
        help="run every registered job (the default when --ids is absent)",
    )
    selection.add_argument(
        "--ids",
        default="",
        help="comma-separated job ids (e.g. E01,E09,A3,S-lambda)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help="worker processes (default: one per CPU, os.cpu_count())",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-execute even when a cached artifact exists",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="JOB:KEY=VALUE",
        help=(
            "override one experiment runner kwarg (repeatable), e.g. "
            "E03:lambda_exponent=8; overridden jobs cache separately "
            "per design point"
        ),
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    _add_backend_options(parser)


def _worker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "spool_dir",
        help="a spool directory (one run's, or the parent holding many)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between scans for claimable jobs (default 0.2)",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: serve batch "
        "after batch until `touch <spool-dir>/STOP` or Ctrl-C)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="drain what is claimable right now, then exit",
    )
    parser.add_argument(
        "--max-jobs",
        type=positive_int,
        default=None,
        dest="max_jobs",
        help="exit after executing this many jobs (a deterministic "
        "bound for tests and CI)",
    )


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default 8642; 0 picks a free one)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=2,
        help="submission batches executed concurrently (default 2)",
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    _add_backend_options(parser)


def _merge_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "other_root", help="the detached lab root to import from"
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)


def _status_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the status as one JSON object instead of tables",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="show recent runs' batch metrics (cache-hit rate, queue "
        "latency, backend counters) from their manifests",
    )


def _summarize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    parser.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )


def _index_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    parser.add_argument(
        "--verify",
        action="store_true",
        help="recompute stored config hashes instead and report drift "
        "(exit 1 on corrupt or mismatched results)",
    )


def _history_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metric",
        default=None,
        help="render this metric's trend (e.g. total_cycles, "
        "elapsed_seconds, mean_seconds); omit to list known metrics",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="substring filter over scenario names and job ids",
    )
    parser.add_argument(
        "--ingest",
        action="append",
        default=[],
        metavar="PATH",
        help="first copy this pytest-benchmark JSON file into the lab "
        "root's bench/ directory (repeatable; another root's runs come "
        "in through `repro lab merge`)",
    )
    parser.add_argument(
        "--flag-regressions",
        action="store_true",
        dest="flag_regressions",
        help="exit 1 when any series' latest point is worse than its "
        "best-ever value beyond the tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative regression tolerance (default 0.05)",
    )
    parser.add_argument(
        "--absolute-floor",
        type=float,
        default=0.0,
        dest="absolute_floor",
        metavar="SLACK",
        help="absolute slack when a series' best-ever value is 0 and "
        "relative tolerance is meaningless (default 0.0: any move off "
        "a zero best is flagged)",
    )
    parser.add_argument(
        "--limit",
        type=positive_int,
        default=None,
        help="show only the newest N trend points",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit trend/regression data as one JSON object",
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)


def _diff_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("run_a", help="baseline run id (see `lab status`)")
    parser.add_argument("run_b", help="candidate run id")
    parser.add_argument("--root", default=None, help=ROOT_HELP)


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="JSON grid file ({'base':..., 'axes':...})")
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help="worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--force", action="store_true", help="ignore cached artifacts"
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="render the table as Markdown instead of ASCII",
    )
    parser.add_argument(
        "--output", default=None, help="write the table to this file"
    )
    parser.add_argument("--root", default=None, help=ROOT_HELP)
    _add_backend_options(parser)


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """The execution-backend flags of `lab run`, `lab sweep` and `lab serve`."""
    parser.add_argument(
        "--backend",
        choices=["serial", "pool", "spool"],
        default=None,
        help="execution backend: serial (in-process), pool (process "
        "pool, the default), or spool (filesystem spool served by "
        "`repro lab worker` processes)",
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="spool backend: requeue claims whose worker heartbeat is "
        "older than this (default 60)",
    )
    parser.add_argument(
        "--spool-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="spool backend: fail if the batch has not completed after "
        "this long (default: wait forever)",
    )
    parser.add_argument(
        "--participate",
        action="store_true",
        help="spool backend: the coordinator also claims and executes "
        "jobs while polling (works with zero external workers)",
    )


def _build_backend(args: argparse.Namespace, store):
    """The backend instance (or name) `run_jobs` should execute through."""
    if args.backend != "spool":
        return args.backend
    from repro.lab import SpoolBackend

    return SpoolBackend(
        store.root / "spool",
        stale_after=args.stale_after,
        participate=args.participate,
        timeout=args.spool_timeout,
        announce=print,
    )


#: ``repro lab`` sub-command -> (its one-line help, the function that
#: adds its arguments), in the order ``repro lab --help`` lists them.
SUBCOMMANDS = {
    "run": (
        "execute registered jobs in parallel, caching results",
        _run_arguments,
    ),
    "worker": (
        "serve spooled jobs: claim, execute, write results "
        "(run any number, on any host sharing the spool directory)",
        _worker_arguments,
    ),
    "serve": (
        "persistent HTTP experiment service: POST scenario specs, "
        "poll runs, fetch cached results by config hash",
        _serve_arguments,
    ),
    "merge": (
        "fold another lab root's artifacts and runs into this one "
        "(content-addressed, conflict-free, idempotent)",
        _merge_arguments,
    ),
    "status": ("show cache coverage and recent runs", _status_arguments),
    "summarize": (
        "render a Markdown summary of all cached results",
        _summarize_arguments,
    ),
    "index": (
        "import a root's earlier-layout artifact files "
        "(artifacts/<hash>/result.json) into index.sqlite, which holds "
        "every result (each run is recorded in runs/<run-id>/manifest.json)",
        _index_arguments,
    ),
    "history": (
        "cross-run metric trends, read from the lab root's run "
        "manifests and results and its ingested BENCH_*.json files",
        _history_arguments,
    ),
    "diff": (
        "compare two recorded runs' cached artifacts (exit 1 on "
        "regression)",
        _diff_arguments,
    ),
    "sweep": (
        "run a scenario grid through the lab and render one "
        "comparison table (axes as columns)",
        _sweep_arguments,
    ),
}


def command_lab(args: argparse.Namespace) -> int:
    if args.lab_command == "worker":
        # Workers serve a spool directory and own no lab root: results
        # travel back as done-files and only the coordinator persists
        # them into its store.
        return _lab_worker(args)

    if args.lab_command == "serve":
        return _lab_serve(args)

    with ArtifactStore(args.root or default_lab_root()) as store:
        return _lab_store_command(args, store)


def _lab_store_command(args: argparse.Namespace, store) -> int:
    """Every `repro lab` command that works on one lab root's store."""
    if args.lab_command == "run":
        registry = build_registry()
        if args.ids:
            lookup = {job_id.lower(): job_id for job_id in registry}
            wanted = [
                lookup.get(item.strip().lower(), item.strip())
                for item in args.ids.split(",")
                if item.strip()
            ]
            unknown = sorted(set(wanted) - set(registry))
            if unknown:
                print(
                    f"unknown job ids: {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(registry))})",
                    file=sys.stderr,
                )
                return 2
            specs = [registry[job_id] for job_id in dict.fromkeys(wanted)]
        else:
            specs = list(registry.values())
        overrides = _parse_param_overrides(args.param)
        if overrides:
            # An override that matches no selected job would otherwise
            # silently run the default design point under a PASS banner.
            selected = {spec.job_id for spec in specs}
            unmatched = sorted(set(overrides) - selected)
            if unmatched:
                raise ConfigurationError(
                    f"--param job id(s) {', '.join(unmatched)} are not in "
                    f"the selected jobs ({', '.join(sorted(selected))})"
                )
            specs = [
                experiment_spec(spec.job_id, **overrides[spec.job_id])
                if spec.job_id in overrides
                else spec
                for spec in specs
            ]
        report = run_jobs(
            specs,
            store=store,
            workers=args.jobs,
            force=args.force,
            progress=print,
            backend=_build_backend(args, store),
        )
        print(
            f"run {report.run_id}: {len(report.outcomes)} jobs, "
            f"{report.cache_hits} cache hits, {report.executed} executed, "
            f"{len(report.failures)} failed in {report.elapsed_seconds:.1f}s"
        )
        print(f"manifest: {store.runs_dir / report.run_id / 'manifest.json'}")
        if report.failures:
            failed = ", ".join(o.spec.job_id for o in report.failures)
            print(f"failed jobs: {failed}", file=sys.stderr)
            return 1
        return 0

    if args.lab_command == "merge":
        with ArtifactStore(args.other_root) as other:
            counts = store.merge(other)
        print(
            f"merged {other.root} into {store.root}: "
            f"{counts['artifacts_imported']} artifact(s) imported, "
            f"{counts['artifacts_skipped']} already present, "
            f"{counts['corrupt_skipped']} corrupt skipped, "
            f"{counts['runs_imported']} run(s) imported"
        )
        return 0

    if args.lab_command == "status":
        payload = status_payload(store, build_registry())
        if args.metrics:
            payload["run_metrics"] = recent_run_metrics(store)
        if args.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.metrics:
            entries = payload["run_metrics"]
            if not entries:
                print(f"no run manifests under {store.runs_dir}")
                return 0
            print(f"lab root: {store.root}")
            rows = []
            for entry in entries:
                metrics = entry["metrics"]
                hit_rate = metrics.get("cache_hit_rate")
                queue = metrics.get("queue_latency_mean_seconds")
                rows.append(
                    [
                        entry["run_id"],
                        entry["backend"] or "-",
                        entry["job_count"],
                        (
                            f"{hit_rate:.0%}"
                            if isinstance(hit_rate, (int, float))
                            else "-"
                        ),
                        (
                            f"{queue:.3f}s"
                            if isinstance(queue, (int, float))
                            else "-"
                        ),
                        f"{entry['elapsed_seconds']:.1f}s",
                        entry["failures"],
                    ]
                )
            print(
                render_table(
                    [
                        "run",
                        "backend",
                        "jobs",
                        "hit rate",
                        "mean queue",
                        "wall",
                        "failed",
                    ],
                    rows,
                )
            )
            extras = {
                key: value
                for entry in entries
                for key, value in entry["metrics"].items()
                if key.startswith(("spool_", "pool_"))
            }
            if extras:
                newest = entries[0]["metrics"]
                detail = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(newest.items())
                    if key.startswith(("spool_", "pool_"))
                )
                if detail:
                    print(f"newest run backend detail: {detail}")
            return 0
        rows = []
        for job in payload["jobs"]:
            if not job["cached"]:
                rows.append([job["job_id"], job["kind"], "-", "-", "-"])
            else:
                rows.append(
                    [
                        job["job_id"],
                        job["kind"],
                        "yes",
                        "pass" if job["all_passed"] else "FAIL",
                        f"{job['elapsed_seconds']:.2f}s",
                    ]
                )
        print(f"lab root: {store.root}")
        print(
            f"cached:   {payload['cached']}/{payload['registered']} "
            "registered jobs"
        )
        print(render_table(["job", "kind", "cached", "checks", "cost"], rows))
        runs = payload["runs"]
        if runs:
            print()
            print(
                render_table(
                    ["run", "when", "jobs", "hits", "failed", "elapsed"],
                    [
                        [
                            run["run_id"],
                            run["created_at"],
                            run["job_count"],
                            run["cache_hits"],
                            run["failures"],
                            f"{run['elapsed_seconds']:.1f}s",
                        ]
                        for run in runs
                    ],
                )
            )
        return 0

    if args.lab_command == "summarize":
        markdown, missing = summarize_cached(store, build_registry())
        if markdown is None:
            print(
                f"no cached results under {store.root} — run `repro lab run` "
                "first",
                file=sys.stderr,
            )
            return 1
        if args.output:
            Path(args.output).write_text(markdown)
            print(f"wrote {args.output} ({len(missing)} jobs not cached)")
        else:
            print(markdown)
        return 0

    if args.lab_command == "diff":
        from repro.lab import diff_runs, render_diff

        diff = diff_runs(store, args.run_a, args.run_b)
        print(render_diff(diff))
        return 1 if diff.has_regressions else 0

    if args.lab_command == "sweep":
        return _lab_sweep(args, store)

    if args.lab_command == "history":
        return _lab_history(args, store)

    if args.verify:
        report = store.verify()
        print(
            f"verified {report['checked']} artifact(s) under {store.root}: "
            f"{len(report['ok'])} ok, {len(report['stale'])} stale, "
            f"{len(report['mismatched'])} mismatched, "
            f"{len(report['corrupt'])} corrupt, "
            f"{len(report['unverifiable'])} unverifiable"
        )
        for label in ("stale", "mismatched", "corrupt", "unverifiable"):
            for address in report[label]:
                print(f"  [{label}] {address}")
        return 1 if report["mismatched"] or report["corrupt"] else 0

    count = store.rebuild_index()
    print(f"indexed {count} artifact file(s) into {store.index_path}")
    return 0


def _lab_worker(args: argparse.Namespace) -> int:
    """`repro lab worker`: serve one spool directory until done/idle."""
    from repro.lab import serve

    spool_dir = Path(args.spool_dir)
    if args.once and not spool_dir.is_dir():
        print(f"no such spool directory: {spool_dir}", file=sys.stderr)
        return 2
    stats = serve(
        spool_dir,
        poll=args.poll,
        max_idle=args.max_idle,
        max_jobs=args.max_jobs,
        once=args.once,
        progress=print,
    )
    print(
        f"worker done: {stats.executed} job(s) executed, "
        f"{stats.skipped} claim(s) skipped"
    )
    return 0


def _lab_serve(args: argparse.Namespace) -> int:
    """`repro lab serve`: the persistent HTTP front door to the lab."""
    from repro.serve import ServeApp, run_until_signalled

    store = ArtifactStore(args.root or default_lab_root())

    def backend_factory():
        # A fresh backend per batch: SpoolBackend carries per-run
        # mutable counters, so concurrent batches must not share one.
        return _build_backend(args, store)

    def log(message: str) -> None:
        print(message, flush=True)

    app = ServeApp(
        store,
        host=args.host,
        port=args.port,
        backend_factory=backend_factory,
        queue_workers=args.jobs,
        access_log=log,
    )
    return run_until_signalled(app, log=log)


def _lab_sweep(args: argparse.Namespace, store) -> int:
    """Run one scenario grid through the lab, render one comparison table."""
    from repro.report.sweeps import sweep_table
    from repro.scenarios import load_grid

    path = Path(args.file)
    if not path.is_file():
        print(f"no such grid file: {args.file}", file=sys.stderr)
        return 2
    grid = load_grid(path.read_text())
    jobs = scenario_jobs(grid.expand(), progress=print)
    report = run_jobs(
        jobs,
        store=store,
        workers=args.jobs,
        force=args.force,
        progress=print,
        backend=_build_backend(args, store),
    )
    outcomes = {outcome.spec.job_id: outcome for outcome in report.outcomes}
    records = [
        record_metrics(outcomes[job.job_id].record)
        if job.job_id in outcomes
        else {}
        for job in jobs
    ]
    headers, rows = sweep_table(grid, records)
    renderer = render_markdown if args.markdown else render_table
    table = renderer(headers, rows, title=grid.describe())
    if args.output:
        Path(args.output).write_text(table + "\n")
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        print(table)
    print(
        f"run {report.run_id}: {len(report.outcomes)} design points, "
        f"{report.cache_hits} cache hits, {len(report.failures)} failed"
    )
    if report.failures:
        failed = ", ".join(o.spec.job_id for o in report.failures)
        print(f"failed design points: {failed}", file=sys.stderr)
        return 1
    return 0


def _lab_history(args: argparse.Namespace, store) -> int:
    """`repro lab history`: cross-run trends and regression gating.

    Every invocation reads the lab root's manifests, results and bench
    files afresh, after copying in whatever ``--ingest`` names.
    ``--metric`` renders the trend; ``--flag-regressions`` compares each
    series' latest point against its best-ever value and exits 1 on
    slippage.  No points to show or check is exit 2.
    """
    from repro.obs.history import ingest_bench, metric_direction, read_history
    from repro.result_schema import DIRECTIONS

    info = sys.stderr if args.as_json else sys.stdout
    for target in args.ingest:
        count = ingest_bench(store, target)
        print(f"ingested {count} metric point(s) from {target}", file=info)

    history = read_history(store)
    if not history.select(args.metric or None, args.scenario):
        print(
            "no points"
            + (f" for metric {args.metric!r}" if args.metric else "")
            + (f" matching {args.scenario!r}" if args.scenario else "")
            + f" in {store.root}",
            file=sys.stderr,
        )
        return 2

    flagged: list[dict] = []
    if args.flag_regressions:
        flagged = history.flag_regressions(
            metric=args.metric,
            scenario=args.scenario,
            tolerance=args.tolerance,
            absolute_floor=args.absolute_floor,
        )

    if args.as_json:
        payload: dict = {"root": str(store.root)}
        if args.metric:
            payload["metric"] = args.metric
            payload["direction"] = metric_direction(args.metric)
            payload["points"] = history.trend(
                args.metric, scenario=args.scenario, limit=args.limit
            )
        else:
            payload["runs"] = history.runs()
            payload["metrics"] = [
                {"metric": name, "points": count}
                for name, count in history.metric_names()
            ]
        if args.flag_regressions:
            payload["regressions"] = flagged
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if flagged else 0

    if args.metric:
        points = history.trend(
            args.metric, scenario=args.scenario, limit=args.limit
        )
        direction = metric_direction(args.metric)
        if direction is not None:
            label = f"({direction} is better)"
        elif args.metric in DIRECTIONS:
            label = "(no direction)"  # known, with no better side
        else:
            label = "(direction unknown)"
        print(f"{args.metric} — {len(points)} point(s) {label}")
        print(
            render_table(
                ["when", "run", "job", "scenario", "commit", "value"],
                [
                    [
                        point["created_at"] or "-",
                        point["run_id"],
                        point["job_id"],
                        point["scenario"] or "-",
                        (point["git_commit"] or "")[:10] or "-",
                        point["value"],
                    ]
                    for point in points
                ],
            )
        )
    else:
        runs = history.runs()
        names = history.metric_names()
        print(f"lab root: {store.root}")
        print(f"{len(runs)} run(s), {len(names)} distinct metric(s)")
        if names:
            print(
                render_table(
                    ["metric", "points"],
                    [[name, count] for name, count in names],
                )
            )
        print("pick one with --metric <name>")

    if args.flag_regressions:
        if flagged:
            print(f"{len(flagged)} regression(s) flagged:", file=sys.stderr)
            for entry in flagged:
                print(
                    f"  {entry['job_id']} {entry['metric']}: latest "
                    f"{entry['latest']:g} vs best {entry['best']:g} "
                    f"({entry['direction']} is better, "
                    f"{entry['points']} points, run {entry['run_id']})",
                    file=sys.stderr,
                )
            return 1
        print("no regressions beyond tolerance")
    return 0


def _parse_param_overrides(items: list[str]) -> dict[str, dict]:
    """``JOB:KEY=VALUE`` strings to ``{job_id: {key: value}}``.

    Values parse as JSON when possible (so ``8`` is an int and
    ``true`` a bool) and fall back to plain strings.
    """
    overrides: dict[str, dict] = {}
    for item in items:
        head, separator, raw = item.partition("=")
        job_id, colon, key = head.partition(":")
        if not separator or not colon or not job_id or not key:
            raise ConfigurationError(
                f"bad --param {item!r}; expected JOB:KEY=VALUE "
                "(e.g. E03:lambda_exponent=8)"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides.setdefault(job_id.strip().upper(), {})[key.strip()] = value
    return overrides
