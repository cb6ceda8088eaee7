"""Cross-run regression diffing over cached lab artifacts.

``repro lab diff <run-a> <run-b>`` compares what two recorded runs
actually produced — check outcomes, table rows (cycle counts), job
sets — from their records in the lab store.  Because records are
content-addressed over job params, package version and source
fingerprint, two runs of different package versions (or different
design points) keep separate records, which is exactly what makes the
comparison meaningful.

Severity model:

* **regression** — a job that passed all checks in run A and fails in
  run B, or any individual check that flipped pass -> fail;
* **change** — same verdicts but different table rows (e.g. a latency
  that moved) or a check whose measured value moved while still
  passing;
* **added/removed** — jobs present in only one run.

Regressions drive the non-zero exit status; changes are reported but
benign (a diff across intentional re-tuning should not fail CI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.lab.hashing import decode_rows
from repro.lab.manifest import read_manifest
from repro.lab.store import ArtifactStore


class UnknownRunError(ReproError):
    """A run id with no manifest (and no index row) under the lab root."""


@dataclass(frozen=True)
class JobDiff:
    """How one job differs between the two runs."""

    job_id: str
    severity: str  # "regression" | "change"
    detail: str


@dataclass
class RunDiff:
    """Everything that differs between two runs."""

    run_a: str
    run_b: str
    compared: int = 0
    identical: int = 0
    regressions: list[JobDiff] = field(default_factory=list)
    changes: list[JobDiff] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)


def _run_records(
    store: ArtifactStore, run_id: str, warnings: list[str]
) -> dict[str, dict]:
    """``job_id -> stored record`` for one run.

    The run's manifest lists every job with its config hash; the
    records come from the store.  When the manifest is gone (pruned
    runs directory, or a run killed before it ended) the ``results``
    rows still know which results the run *executed* — but not its
    cache hits, which never write a row under that run id — so the
    fallback view can be partial and says so via ``warnings`` (surfaced
    in the rendered diff).  A job whose result is missing (crashed jobs
    are never cached) contributes a minimal failed record built from
    manifest metadata, so a crash in run B still shows up as a
    regression.  Either way the run's records are one ``load_many``.
    """
    manifest_path = store.runs_dir / run_id / "manifest.json"
    records: dict[str, dict] = {}
    if manifest_path.is_file():
        try:
            manifest = read_manifest(manifest_path)
        except ValueError as error:
            raise UnknownRunError(
                f"manifest for run {run_id!r} is unreadable: {error}"
            ) from None
        jobs = manifest.get("jobs", [])
        found = store.load_many(job["config_hash"] for job in jobs)
        for job in jobs:
            record = found.get(job["config_hash"])
            if record is None:
                record = {
                    "job_id": job["job_id"],
                    "kind": job.get("kind", ""),
                    "title": "",
                    "headers": [],
                    "rows": [],
                    "checks": [],
                    "notes": [],
                    "all_passed": bool(job.get("all_passed", False)),
                }
            records[job["job_id"]] = record
        return records
    executed = store.load_many(
        row["config_hash"]
        for row in store.results()
        if row["run_id"] == run_id
    )
    for record in executed.values():
        records[record["job_id"]] = record
    if not records:
        known = sorted(
            path.name for path in store.runs_dir.glob("*") if path.is_dir()
        ) if store.runs_dir.is_dir() else []
        raise UnknownRunError(
            f"no manifest or stored results for run {run_id!r} under "
            f"{store.root} (recorded runs: {', '.join(known) or 'none'})"
        )
    warnings.append(
        f"run {run_id} has no manifest; comparing only the "
        f"{len(records)} job(s) the index shows it executed — its cache "
        "hits are not recorded and are missing from this diff"
    )
    return records


def _diff_checks(job_id: str, a: dict, b: dict, diff: RunDiff) -> bool:
    """Compare check lists; returns True when anything differed."""
    checks_a = {check["claim"]: check for check in a.get("checks", [])}
    checks_b = {check["claim"]: check for check in b.get("checks", [])}
    differed = False
    for claim in checks_a.keys() & checks_b.keys():
        was, now = checks_a[claim], checks_b[claim]
        if was["passed"] and not now["passed"]:
            diff.regressions.append(
                JobDiff(
                    job_id,
                    "regression",
                    f"check regressed: {claim!r} "
                    f"(expected {now['expected']}, measured {now['measured']})",
                )
            )
            differed = True
        elif was["measured"] != now["measured"]:
            diff.changes.append(
                JobDiff(
                    job_id,
                    "change",
                    f"check {claim!r} measured "
                    f"{was['measured']} -> {now['measured']}",
                )
            )
            differed = True
    only_a = sorted(checks_a.keys() - checks_b.keys())
    only_b = sorted(checks_b.keys() - checks_a.keys())
    if only_a or only_b:
        diff.changes.append(
            JobDiff(
                job_id,
                "change",
                f"check set changed ({len(only_a)} dropped, "
                f"{len(only_b)} new)",
            )
        )
        differed = True
    return differed


def _diff_rows(job_id: str, a: dict, b: dict, diff: RunDiff) -> bool:
    rows_a = decode_rows(a.get("rows", []))
    rows_b = decode_rows(b.get("rows", []))
    if a.get("headers", []) != b.get("headers", []):
        diff.changes.append(
            JobDiff(job_id, "change", "table headers changed")
        )
        return True
    if rows_a == rows_b:
        return False
    changed = sum(1 for pair in zip(rows_a, rows_b) if pair[0] != pair[1])
    changed += abs(len(rows_a) - len(rows_b))
    examples = []
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a != row_b:
            examples.append(f"{row_a!r} -> {row_b!r}")
            if len(examples) == 2:
                break
    detail = f"{changed} table row(s) differ"
    if len(rows_a) != len(rows_b):
        detail += f" (row count {len(rows_a)} -> {len(rows_b)})"
    if examples:
        detail += f"; e.g. {'; '.join(examples)}"
    diff.changes.append(JobDiff(job_id, "change", detail))
    return True


def diff_runs(store: ArtifactStore, run_a: str, run_b: str) -> RunDiff:
    """Compare two recorded runs' cached artifacts."""
    warnings: list[str] = []
    records_a = _run_records(store, run_a, warnings)
    records_b = _run_records(store, run_b, warnings)
    diff = RunDiff(run_a=run_a, run_b=run_b, warnings=warnings)
    diff.added = sorted(records_b.keys() - records_a.keys())
    diff.removed = sorted(records_a.keys() - records_b.keys())
    for job_id in sorted(records_a.keys() & records_b.keys()):
        a, b = records_a[job_id], records_b[job_id]
        diff.compared += 1
        differed = False
        if a["all_passed"] and not b["all_passed"]:
            diff.regressions.append(
                JobDiff(
                    job_id,
                    "regression",
                    "job passed every check in "
                    f"{run_a} but fails in {run_b}",
                )
            )
            differed = True
        elif not a["all_passed"] and b["all_passed"]:
            diff.changes.append(
                JobDiff(job_id, "change", "job now passes (was failing)")
            )
            differed = True
        differed = _diff_checks(job_id, a, b, diff) or differed
        differed = _diff_rows(job_id, a, b, diff) or differed
        if not differed:
            diff.identical += 1
    return diff


def render_diff(diff: RunDiff) -> str:
    """Human-readable diff summary, one block per category."""
    lines = [
        f"lab diff: {diff.run_a} -> {diff.run_b}",
        f"compared {diff.compared} common job(s); {diff.identical} identical",
    ]
    for warning in diff.warnings:
        lines.append(f"WARNING: {warning}")
    if diff.removed:
        lines.append(f"only in {diff.run_a}: {', '.join(diff.removed)}")
    if diff.added:
        lines.append(f"only in {diff.run_b}: {', '.join(diff.added)}")
    for label, items in (
        ("REGRESSION", diff.regressions),
        ("change", diff.changes),
    ):
        for item in items:
            lines.append(f"[{label}] {item.job_id}: {item.detail}")
    if not (diff.regressions or diff.changes or diff.added or diff.removed):
        lines.append("runs are identical")
    elif not diff.regressions:
        lines.append("no regressions")
    else:
        lines.append(f"{len(diff.regressions)} regression(s)")
    return "\n".join(lines)
