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
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.efficiency import efficiency
from repro.analysis.fractions import conflict_free_fraction
from repro.core.vector import VectorAccess
from repro.core.windows import (
    MatchedDesign,
    UnmatchedDesign,
)
from repro.errors import ReproError
from repro.memory.trace import describe_result, render_timeline
from repro.report.tables import render_table
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    build_machine,
    simulate_access,
)
from repro.scenarios.facade import build_config


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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _memory_vector(text: str) -> tuple[int, int, int]:
    """``BASE:STRIDE:COUNT`` as three integers."""
    try:
        base, stride, count = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BASE:STRIDE:COUNT (three integers), got {text!r}"
        ) from None
    return base, stride, count


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """The execution-backend flags `lab run` and `lab sweep` share."""
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
    if getattr(args, "backend", None) != "spool":
        return getattr(args, "backend", None)
    from repro.lab import SpoolBackend

    return SpoolBackend(
        store.root / "spool",
        stale_after=args.stale_after,
        participate=args.participate,
        timeout=args.spool_timeout,
        announce=print,
    )


def build_parser() -> argparse.ArgumentParser:
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
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser(
        "plan", help="plan and simulate one vector access"
    )
    plan.add_argument("--t", type=int, default=3, help="T = 2**t (default 3)")
    plan.add_argument("--s", type=int, default=4, help="Eq. (1)/(2) s")
    plan.add_argument(
        "--y", type=int, default=None,
        help="Eq. (2) y; presence selects the unmatched M=T**2 memory",
    )
    plan.add_argument("--base", type=int, default=0, help="A1")
    plan.add_argument("--stride", type=int, required=True)
    plan.add_argument("--length", type=int, default=128)
    plan.add_argument(
        "--mode",
        choices=["auto", "ordered", "subsequence", "conflict_free"],
        default="auto",
    )
    plan.add_argument("--q", type=int, default=1, help="input buffers")
    plan.add_argument("--qp", type=int, default=1, help="output buffers")
    plan.add_argument(
        "--timeline", action="store_true", help="print the module Gantt chart"
    )

    window = commands.add_parser(
        "window", help="show the conflict-free window of a design"
    )
    window.add_argument("--lam", type=int, required=True, help="L = 2**lam")
    window.add_argument("--t", type=int, default=3)
    window.add_argument(
        "--unmatched", action="store_true", help="use the M = T**2 design"
    )

    survey = commands.add_parser(
        "survey", help="latency per stride for one design"
    )
    survey.add_argument("--t", type=int, default=3)
    survey.add_argument("--s", type=int, default=4)
    survey.add_argument("--y", type=int, default=None)
    survey.add_argument("--length", type=int, default=128)
    survey.add_argument("--max-stride", type=int, default=32)

    lab = commands.add_parser(
        "lab",
        help="parallel experiment lab with content-addressed result caching",
    )
    lab_commands = lab.add_subparsers(dest="lab_command", required=True)
    root_help = (
        "lab root directory (default: $REPRO_LAB_ROOT or .repro-lab)"
    )

    lab_run = lab_commands.add_parser(
        "run", help="execute registered jobs in parallel, caching results"
    )
    selection = lab_run.add_mutually_exclusive_group()
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
    lab_run.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU, os.cpu_count())",
    )
    lab_run.add_argument(
        "--force",
        action="store_true",
        help="re-execute even when a cached artifact exists",
    )
    lab_run.add_argument(
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
    lab_run.add_argument("--root", default=None, help=root_help)
    _add_backend_options(lab_run)

    lab_worker = lab_commands.add_parser(
        "worker",
        help="serve spooled jobs: claim, execute, write results "
        "(run any number, on any host sharing the spool directory)",
    )
    lab_worker.add_argument(
        "spool_dir",
        help="a spool directory (one run's, or the parent holding many)",
    )
    lab_worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between scans for claimable jobs (default 0.2)",
    )
    lab_worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: serve batch "
        "after batch until `touch <spool-dir>/STOP` or Ctrl-C)",
    )
    lab_worker.add_argument(
        "--once",
        action="store_true",
        help="drain what is claimable right now, then exit",
    )
    lab_worker.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        dest="max_jobs",
        help="exit after executing this many jobs (a deterministic "
        "bound for tests and CI)",
    )

    lab_serve = lab_commands.add_parser(
        "serve",
        help="persistent HTTP experiment service: POST scenario specs, "
        "poll runs, fetch cached results by config hash",
    )
    lab_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    lab_serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (default 8642; 0 picks a free one)",
    )
    lab_serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=2,
        help="submission batches executed concurrently (default 2)",
    )
    lab_serve.add_argument("--root", default=None, help=root_help)
    _add_backend_options(lab_serve)

    lab_merge = lab_commands.add_parser(
        "merge",
        help="fold another lab root's artifacts and runs into this one "
        "(content-addressed, conflict-free, idempotent)",
    )
    lab_merge.add_argument(
        "other_root", help="the detached lab root to import from"
    )
    lab_merge.add_argument("--root", default=None, help=root_help)

    lab_status = lab_commands.add_parser(
        "status", help="show cache coverage and recent runs"
    )
    lab_status.add_argument("--root", default=None, help=root_help)
    lab_status.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the status as one JSON object instead of tables",
    )
    lab_status.add_argument(
        "--metrics",
        action="store_true",
        help="show recent runs' batch metrics (cache-hit rate, queue "
        "latency, backend counters) from their manifests",
    )

    lab_summarize = lab_commands.add_parser(
        "summarize", help="render a Markdown summary of all cached results"
    )
    lab_summarize.add_argument("--root", default=None, help=root_help)
    lab_summarize.add_argument(
        "--output", default=None, help="write to this file instead of stdout"
    )

    lab_index = lab_commands.add_parser(
        "index",
        help="import a root's earlier-layout artifact files "
        "(artifacts/<hash>/result.json) into index.sqlite, which holds "
        "every result (each run is recorded in runs/<run-id>/manifest.json)",
    )
    lab_index.add_argument("--root", default=None, help=root_help)
    lab_index.add_argument(
        "--verify",
        action="store_true",
        help="recompute stored config hashes instead and report drift "
        "(exit 1 on corrupt or mismatched results)",
    )

    lab_history = lab_commands.add_parser(
        "history",
        help="cross-run metric trends, read from the lab root's run "
        "manifests and results and its ingested BENCH_*.json files",
    )
    lab_history.add_argument(
        "--metric",
        default=None,
        help="render this metric's trend (e.g. total_cycles, "
        "elapsed_seconds, mean_seconds); omit to list known metrics",
    )
    lab_history.add_argument(
        "--scenario",
        default=None,
        help="substring filter over scenario names and job ids",
    )
    lab_history.add_argument(
        "--ingest",
        action="append",
        default=[],
        metavar="PATH",
        help="first copy this pytest-benchmark JSON file into the lab "
        "root's bench/ directory (repeatable; another root's runs come "
        "in through `repro lab merge`)",
    )
    lab_history.add_argument(
        "--flag-regressions",
        action="store_true",
        dest="flag_regressions",
        help="exit 1 when any series' latest point is worse than its "
        "best-ever value beyond the tolerance",
    )
    lab_history.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative regression tolerance (default 0.05)",
    )
    lab_history.add_argument(
        "--absolute-floor",
        type=float,
        default=0.0,
        dest="absolute_floor",
        metavar="SLACK",
        help="absolute slack when a series' best-ever value is 0 and "
        "relative tolerance is meaningless (default 0.0: any move off "
        "a zero best is flagged)",
    )
    lab_history.add_argument(
        "--limit",
        type=_positive_int,
        default=None,
        help="show only the newest N trend points",
    )
    lab_history.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit trend/regression data as one JSON object",
    )
    lab_history.add_argument("--root", default=None, help=root_help)

    lab_diff = lab_commands.add_parser(
        "diff",
        help="compare two recorded runs' cached artifacts (exit 1 on "
        "regression)",
    )
    lab_diff.add_argument("run_a", help="baseline run id (see `lab status`)")
    lab_diff.add_argument("run_b", help="candidate run id")
    lab_diff.add_argument("--root", default=None, help=root_help)

    lab_sweep = lab_commands.add_parser(
        "sweep",
        help="run a scenario grid through the lab and render one "
        "comparison table (axes as columns)",
    )
    lab_sweep.add_argument("file", help="JSON grid file ({'base':..., 'axes':...})")
    lab_sweep.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes (default: one per CPU)",
    )
    lab_sweep.add_argument(
        "--force", action="store_true", help="ignore cached artifacts"
    )
    lab_sweep.add_argument(
        "--markdown",
        action="store_true",
        help="render the table as Markdown instead of ASCII",
    )
    lab_sweep.add_argument(
        "--output", default=None, help="write the table to this file"
    )
    lab_sweep.add_argument("--root", default=None, help=root_help)
    _add_backend_options(lab_sweep)

    scenario = commands.add_parser(
        "scenario",
        help="declarative machine + workload specs (JSON in, metrics out)",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_run = scenario_commands.add_parser(
        "run", help="simulate scenario specs (or grids) from JSON files"
    )
    scenario_run.add_argument(
        "files", nargs="+", help="JSON files: one spec, a grid, or a list"
    )
    scenario_run.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print results as a JSON array instead of tables",
    )
    scenario_run.add_argument(
        "--lab",
        action="store_true",
        help="execute through the lab (parallel, content-addressed cache)",
    )
    scenario_run.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for --lab (default: one per CPU)",
    )
    scenario_run.add_argument(
        "--force", action="store_true", help="with --lab: ignore the cache"
    )
    scenario_run.add_argument("--root", default=None, help=root_help)
    scenario_run.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a Chrome/Perfetto trace of each simulation "
        "(multiple specs get -1, -2, ... suffixes); open in ui.perfetto.dev",
    )

    scenario_commands.add_parser(
        "list",
        help="show every registered mapping/workload/drive/program kind",
    )

    scenario_diff = scenario_commands.add_parser(
        "diff",
        help="simulate two design points and compare them metric by "
        "metric (exit 1 on regression)",
    )
    scenario_diff.add_argument("file_a", help="baseline spec (one JSON spec)")
    scenario_diff.add_argument("file_b", help="candidate spec (one JSON spec)")

    check = commands.add_parser(
        "check",
        help="static conflict/hazard analysis of scenario specs "
        "(no simulation; exit 1 on error findings)",
    )
    check.add_argument(
        "files", nargs="+", help="JSON files: one spec, a grid, or a list"
    )
    check.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print findings as JSON instead of the line grammar",
    )

    run = commands.add_parser(
        "run", help="execute a vector-assembly file on the decoupled machine"
    )
    run.add_argument("file", help="assembly file (see `repro run --help`)")
    run.add_argument("--t", type=int, default=3)
    run.add_argument("--s", type=int, default=4)
    run.add_argument("--y", type=int, default=None)
    run.add_argument("--register-length", type=int, default=128)
    run.add_argument("--chaining", action="store_true")
    run.add_argument(
        "--dump",
        type=_memory_vector,
        default=None,
        metavar="BASE:STRIDE:COUNT",
        help="print a memory vector after the run",
    )

    return parser


def _design(
    t: int, s: int, y: int | None, q: int = 1, qp: int = 1
) -> ScenarioSpec:
    """The machine-only spec of the matched (Eq. 1) design, or of the
    unmatched (Eq. 2) one when ``y`` is given."""
    if y is None:
        mapping = ComponentSpec.of("matched-xor", t=t, s=s)
    else:
        mapping = ComponentSpec.of("section-xor", t=t, s=s, y=y)
    return ScenarioSpec(mapping=mapping, memory=MemorySpec(t=t, q=q, qp=qp))


def command_plan(args: argparse.Namespace) -> int:
    config, planner, system = build_machine(
        _design(args.t, args.s, args.y, args.q, args.qp)
    )
    vector = VectorAccess(args.base, args.stride, args.length)

    plan = planner.plan(vector, mode=args.mode)
    # The kernel directly, not simulate(): --timeline draws each
    # request's timing record, which a ScenarioResult does not carry.
    result = system.run_plan(plan)
    print(f"memory:  {config.describe()}")
    print(f"access:  {vector} (family x={vector.family}, sigma={vector.sigma})")
    print(f"scheme:  {plan.scheme}")
    print(f"result:  {describe_result(result, config.service_ratio)}")
    if args.timeline:
        print(render_timeline(result, config.module_count))
    return 0


def command_window(args: argparse.Namespace) -> int:
    if args.unmatched:
        design = UnmatchedDesign.recommended(args.lam, args.t)
        window = design.fused_window()
        print(
            f"unmatched design: M={design.module_count}, T={1 << args.t}, "
            f"s={design.s}, y={design.y}"
        )
    else:
        matched = MatchedDesign.recommended(args.lam, args.t)
        window = matched.window()
        print(
            f"matched design: M={matched.module_count}, T={1 << args.t}, "
            f"s={matched.s}"
        )
    fraction = conflict_free_fraction(window.high)
    eta = efficiency(window.high, args.t)
    print(f"conflict-free families: {window} ({window.size} families)")
    print(f"stride coverage f = {fraction} ({float(fraction):.6f})")
    print(f"efficiency eta = {float(eta):.4f}")
    return 0


def command_survey(args: argparse.Namespace) -> int:
    design = _design(args.t, args.s, args.y)
    config = build_config(design)
    minimum = config.service_ratio + args.length + 1
    rows = []
    for stride in range(1, args.max_stride + 1):
        vector = VectorAccess(0, stride, args.length)
        result = simulate_access(design, vector)
        rows.append(
            [
                stride,
                vector.family,
                result.schemes[0],
                result.latency,
                result.conflict_free,
            ]
        )
    print(f"{config.describe()}, L={args.length}, minimum latency {minimum}")
    print(
        render_table(
            ["stride", "family", "scheme", "latency", "conflict-free"], rows
        )
    )
    return 0


def command_lab(args: argparse.Namespace) -> int:
    from repro.lab import ArtifactStore, default_lab_root

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
    from repro.lab import (
        ArtifactStore,
        build_registry,
        run_jobs,
        summarize_cached,
    )

    registry = build_registry()

    if args.lab_command == "run":
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
            from repro.errors import ConfigurationError
            from repro.lab import experiment_spec

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
        import json as json_module

        from repro.lab import recent_run_metrics, status_payload

        payload = status_payload(store, registry)
        if args.metrics:
            payload["run_metrics"] = recent_run_metrics(store)
        if args.as_json:
            print(json_module.dumps(payload, indent=2, sort_keys=True))
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
        markdown, missing = summarize_cached(store, registry)
        if markdown is None:
            print(
                f"no cached results under {store.root} — run `repro lab run` "
                "first",
                file=sys.stderr,
            )
            return 1
        if args.output:
            from pathlib import Path

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
    from pathlib import Path

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
    from repro.lab import ArtifactStore, default_lab_root
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
    from pathlib import Path

    from repro.lab import decode_rows, run_jobs, scenario_jobs
    from repro.report.sweeps import sweep_table
    from repro.report.tables import render_markdown
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
    records = []
    for job in jobs:
        outcome = outcomes.get(job.job_id)
        if outcome is None:
            records.append({})
            continue
        records.append(
            {
                str(metric): value
                for metric, value in decode_rows(
                    outcome.record.get("rows", [])
                )
            }
        )
    headers, rows = sweep_table(grid, records)
    renderer = render_markdown if args.markdown else render_table
    table = renderer(headers, rows, title=grid.describe())
    if args.output:
        Path(args.output).write_text(table + "\n")
        print(f"wrote {args.output} ({len(rows)} design points)")
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
    import json as json_module

    from repro.obs.history import ingest_bench, metric_direction, read_history

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
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 1 if flagged else 0

    if args.metric:
        points = history.trend(
            args.metric, scenario=args.scenario, limit=args.limit
        )
        direction = metric_direction(args.metric)
        arrow = {"lower": "(lower is better)", "higher": "(higher is better)"}
        print(
            f"{args.metric} — {len(points)} point(s) "
            f"{arrow.get(direction, '(direction unknown)')}"
        )
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
    import json

    from repro.errors import ConfigurationError

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


def command_check(args: argparse.Namespace) -> int:
    """``repro check``: every finding for every file, exit 1 on errors.

    Parse failures are findings (``SL304``), not exceptions — one
    broken file still reports, and still checks its siblings.  Exit 2
    is reserved for usage errors (a missing file), matching the other
    subcommands.
    """
    from pathlib import Path

    from repro.check import check_document

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
        import json

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


def command_scenario(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.scenarios import (
        CATEGORIES,
        example_params,
        kinds,
        load_scenarios,
        simulate,
        summary,
        validate_spec_kinds,
    )

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
                backend=_build_backend(args, store),
            )
        print(
            f"run {report.run_id}: {len(report.outcomes)} scenarios, "
            f"{report.cache_hits} cache hits, {report.executed} executed"
        )
        print(f"manifest: {store.runs_dir / report.run_id / 'manifest.json'}")
        return 1 if report.failures else 0

    if args.trace:
        from repro.obs import Tracer, write_chrome_trace

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
        import json

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
            from repro.scenarios import TIMELINE_FIELDS

            print()
            print(
                render_table(
                    list(TIMELINE_FIELDS),
                    [list(row) for row in result.timeline],
                )
            )
        print()
    return 0


def command_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.processor.decoupled import DecoupledVectorMachine
    from repro.processor.program import parse_source

    path = Path(args.file)
    if not path.is_file():
        print(f"no such program file: {args.file}", file=sys.stderr)
        return 2
    config = build_config(_design(args.t, args.s, args.y, q=2))
    # The machine directly, not simulate(): --dump reads its store
    # after the run.
    machine = DecoupledVectorMachine(
        config,
        register_length=args.register_length,
        chaining=args.chaining,
    )
    # Same parser the 'instructions'/'asm' scenario program kinds use:
    # .init/.fill directives preload memory, the rest is the program.
    program, inits = parse_source(path.read_text())
    result = machine.run(program, inputs=inits)

    print(f"memory:  {config.describe()}")
    print(f"program: {len(program)} instructions "
          f"({program.memory_instruction_count()} memory ops)")
    print(f"cycles:  {result.total_cycles} "
          f"(chained ops: {result.chained_count()}, conflict-free loads: "
          f"{result.conflict_free_loads()})")
    for timing in result.timings:
        print(
            f"  [{timing.start_cycle:6d}..{timing.end_cycle:6d}] "
            f"{timing.unit:7s} {timing.mnemonic:8s} {timing.mode}"
        )
    if args.dump:
        base, stride, count = args.dump
        values = machine.store.read_vector(base, stride, count)
        print(f"dump @{base} stride {stride}: {values}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": command_plan,
        "window": command_window,
        "survey": command_survey,
        "run": command_run,
        "lab": command_lab,
        "scenario": command_scenario,
        "check": command_check,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away mid-print.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
