"""Manifest and report rendering for lab runs.

Every run that ends leaves a ``runs/<run-id>/`` directory with a
machine-readable ``manifest.json`` (which jobs ran, which were cache
hits, each job's config hash) and a human-readable ``report.md`` (one
table row per job: kind, status, executed or cache);
:func:`~repro.lab.executor.run_jobs` writes both when the run ends.
Neither copies a result: each lives in ``index.sqlite`` alone.
The manifest is the only record of a run: :func:`read_manifests` is
the one reader behind ``repro lab status``, ``lab status --metrics``
and the history in :mod:`repro.obs.history`.
The module also owns the EXPERIMENTS.md renderer: ``benchmarks/
run_all.py`` feeds experiment outcomes through
:func:`render_experiments_markdown`, which reproduces the historical
report format byte for byte whether the payloads were computed fresh
or decoded from cached artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lab.executor import ExecutionReport, JobOutcome
from repro.lab.hashing import decode_rows
from repro.lab.jobs import EXPERIMENT_KIND, JobSpec
from repro.lab.store import ArtifactStore, atomic_write
from repro.report.tables import render_markdown

EXPERIMENTS_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every numeric/tabular artifact of Valero et al.,
"Increasing the Number of Strides for Conflict-Free Vector Access"
(ISCA 1992).  Regenerate this file with `python benchmarks/run_all.py`;
each section below is produced by the matching `repro.report.experiments`
runner and the matching `benchmarks/bench_*` target.

Absolute cycle counts come from this repository's cycle-accurate
simulator (timing contract: 1-cycle buses, T-cycle modules — the same
model the paper's latency formulas assume), so the paper's *exact*
latency and efficiency numbers are expected to match, not just the
shape.

"""


def _record_sections(record: dict, heading: str) -> list[str]:
    """One report section: table, notes, then the checks table."""
    sections = [heading]
    sections.append(
        render_markdown(record["headers"], decode_rows(record["rows"]))
    )
    sections.append("")
    if record["notes"]:
        for note in record["notes"]:
            sections.append(f"*Note: {note}*")
        sections.append("")
    sections.append("| check | paper / expected | measured | status |")
    sections.append("|---|---|---|---|")
    for check in record["checks"]:
        mark = "pass" if check["passed"] else "**FAIL**"
        sections.append(
            f"| {check['claim']} | {check['expected']} | {check['measured']} "
            f"| {mark} |"
        )
    sections.append("")
    return sections


def render_experiments_markdown(records: list[dict]) -> str:
    """The EXPERIMENTS.md body for experiment records, historical format."""
    sections: list[str] = [EXPERIMENTS_HEADER]
    for record in records:
        sections.extend(
            _record_sections(
                record, f"## {record['job_id']} — {record['title']}\n"
            )
        )
    return "\n".join(sections)


def render_lab_report(outcomes: list[JobOutcome], run_id: str) -> str:
    """The per-run report.md: one table row per job, with its kind,
    status and source (executed or cache).

    The results themselves stay in ``index.sqlite``, their one copy;
    ``repro lab summarize``, ``lab diff`` and ``lab sweep --output``
    render them from there.  Deliberately free of wall-clock timings:
    for one batch against one store state, serial, pool and spool
    backends all render the exact same bytes, so reports diff cleanly
    across backends and hosts.  (Per-job timings live in manifest.json,
    which may vary.)
    """
    lines = [f"# repro lab report — run `{run_id}`\n"]
    lines.append("| job | kind | status | source |")
    lines.append("|---|---|---|---|")
    for outcome in outcomes:
        status = "pass" if outcome.all_passed else "**FAIL**"
        source = "cache" if outcome.cached else "executed"
        lines.append(
            f"| {outcome.spec.job_id} | {outcome.spec.kind} | {status} "
            f"| {source} |"
        )
    lines.append("")
    return "\n".join(lines)


def write_run_artifacts(
    store: ArtifactStore, report: ExecutionReport
) -> Path:
    """Write report.md, then manifest.json, for one run; returns the directory.

    Both are written atomically and the manifest last, so a run
    directory that holds a manifest holds the whole run.
    """
    run_dir = store.runs_dir / report.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    import repro
    from repro.lab.store import _utc_now
    from repro.obs.commit import current_git_commit

    manifest = {
        "run_id": report.run_id,
        "created_at": _utc_now(),
        "package_version": repro.__version__,
        "git_commit": current_git_commit(),
        "backend": report.metrics.get("backend", ""),
        "metrics": report.metrics,
        "job_count": len(report.outcomes),
        "cache_hits": report.cache_hits,
        "executed": report.executed,
        "failures": [o.spec.job_id for o in report.failures],
        "elapsed_seconds": report.elapsed_seconds,
        "jobs": [
            {
                "job_id": outcome.spec.job_id,
                "kind": outcome.spec.kind,
                "config_hash": outcome.record["config_hash"],
                "package_version": outcome.record["package_version"],
                "all_passed": outcome.all_passed,
                "cached": outcome.cached,
                "elapsed_seconds": outcome.elapsed_seconds,
            }
            for outcome in report.outcomes
        ],
    }
    report_md = render_lab_report(report.outcomes, report.run_id)
    atomic_write(run_dir / "report.md", report_md)
    atomic_write(run_dir / "manifest.json", json.dumps(manifest, indent=2))
    return run_dir


def read_manifests(store: ArtifactStore) -> list[dict]:
    """Every run manifest under the root, oldest first.

    Ordered by ``created_at``, then ``run_id``; ``created_at`` has
    microseconds, so runs come back in the order they were written.  A
    file that is not a JSON object with a ``run_id`` is skipped: it
    records no run.
    """
    manifests: list[dict] = []
    for path in store.runs_dir.glob("*/manifest.json"):
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            continue
        if isinstance(manifest, dict) and "run_id" in manifest:
            manifests.append(manifest)
    manifests.sort(key=lambda m: (m.get("created_at", ""), m["run_id"]))
    return manifests


def recent_run_metrics(store: ArtifactStore, limit: int = 10) -> list[dict]:
    """The newest runs' manifest metrics, newest first.

    Backs ``repro lab status --metrics``: each entry is one run's
    identity plus the batch metrics block ``run_jobs`` recorded
    (cache-hit rate, queue latencies, backend counters).  Manifests
    written before the metrics block existed appear with an empty
    ``metrics`` dict rather than being skipped, so the recent-run
    window stays honest.
    """
    entries: list[dict] = []
    for manifest in read_manifests(store)[::-1][:limit]:
        metrics = manifest.get("metrics")
        entries.append(
            {
                "run_id": manifest["run_id"],
                "created_at": manifest.get("created_at", ""),
                "backend": manifest.get("backend", ""),
                "git_commit": manifest.get("git_commit", ""),
                "job_count": manifest.get("job_count", 0),
                "failures": len(manifest.get("failures", [])),
                "elapsed_seconds": manifest.get("elapsed_seconds", 0.0),
                "metrics": metrics if isinstance(metrics, dict) else {},
            }
        )
    return entries


def cached_records(
    store: ArtifactStore, registry: dict[str, JobSpec]
) -> tuple[list[tuple[JobSpec, dict]], list[str]]:
    """Partition the registry into (spec, cached record) pairs + missing ids.

    The single definition of "is this job cached?" — `repro lab status`
    and `summarize` both consume it, so they can never disagree.
    """
    records = store.load_many(spec.config_hash() for spec in registry.values())
    cached: list[tuple[JobSpec, dict]] = []
    missing: list[str] = []
    for job_id in sorted(registry):
        spec = registry[job_id]
        record = records.get(spec.config_hash())
        if record is None:
            missing.append(job_id)
        else:
            cached.append((spec, record))
    return cached, missing


def status_payload(
    store: ArtifactStore, registry: dict[str, JobSpec]
) -> dict:
    """`repro lab status` as one JSON-safe dict (the --json output).

    The same payload backs the human-readable table, so the two views
    can never disagree — which is the point: spool and merge debugging
    scripts consume this instead of opening index.sqlite by hand.
    """
    cached, missing = cached_records(store, registry)
    by_id = {spec.job_id: record for spec, record in cached}
    jobs = []
    for job_id in sorted(registry):
        record = by_id.get(job_id)
        entry: dict = {"job_id": job_id, "kind": registry[job_id].kind}
        if record is None:
            entry["cached"] = False
        else:
            entry.update(
                cached=True,
                all_passed=bool(record["all_passed"]),
                elapsed_seconds=float(record["elapsed_seconds"]),
                config_hash=record["config_hash"],
            )
        jobs.append(entry)
    runs = [
        {
            "run_id": manifest["run_id"],
            "created_at": manifest.get("created_at", ""),
            "package_version": manifest.get("package_version", ""),
            "job_count": manifest.get("job_count", 0),
            "cache_hits": manifest.get("cache_hits", 0),
            "failures": len(manifest.get("failures", [])),
            "elapsed_seconds": manifest.get("elapsed_seconds", 0.0),
        }
        for manifest in read_manifests(store)[::-1][:5]
    ]
    return {
        "root": str(store.root),
        "registered": len(registry),
        "cached": len(cached),
        "missing": missing,
        "jobs": jobs,
        "runs": runs,
    }


def summarize_cached(
    store: ArtifactStore, registry: dict[str, JobSpec]
) -> tuple[str | None, list[str]]:
    """Markdown over every cached registered job, plus the missing ids.

    Returns ``(None, missing)`` when nothing is cached for the current
    code — there is nothing to summarise without running.
    """
    cached, missing = cached_records(store, registry)
    if not cached:
        return None, missing
    sections = ["# repro lab summary — cached results\n"]
    experiment_count = sum(
        1 for spec, _ in cached if spec.kind == EXPERIMENT_KIND
    )
    sections.append(
        f"{len(cached)} cached jobs ({experiment_count} experiments); "
        f"{len(missing)} registered jobs not cached."
    )
    sections.append("")
    for spec, record in cached:
        sections.extend(
            _record_sections(
                record, f"## {record['job_id']} — {record['title']}\n"
            )
        )
    return "\n".join(sections), missing
