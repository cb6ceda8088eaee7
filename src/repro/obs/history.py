"""Cross-run history: metric points read from a lab root's own records.

``repro lab diff`` compares exactly two runs; this module trends every
metric across all of them.  It stores nothing: :func:`read_history`
scans the root on each call and returns a :class:`History` of points
from

* **run manifests** (``runs/<run-id>/manifest.json``, read through
  :func:`repro.lab.manifest.read_manifests`) — every job's elapsed time
  plus, for scenario jobs, every numeric ``metric_rows()`` value
  (``total_cycles``, ``efficiency``, ``overlap_fraction``, ...) of the
  job's stored result, read with :func:`repro.lab.jobs.record_metrics`
  and named without its ``extra:`` prefix, and the run-level metrics
  block (cache-hit rate, backend worker counts, queue latencies) under
  the reserved job id ``__run__``, with the run's batch identity
  (``batch:`` and a digest of its job ids) as their scenario;
* **pytest-benchmark files** (``bench/<run-id>.json``, copied in from
  ``BENCH_*.json`` by :func:`ingest_bench`) — per-bench mean/min/max/
  median wall seconds, ordered by the ``repro_meta`` stamp (git commit
  + package version + timestamp) that ``benchmarks/conftest.py``
  injects.

Each point carries its run's identity (commit, package version, kind)
and its job's config hash, so a metric series can be split by code
identity.

``repro lab history`` is the CLI face: ``--metric`` renders a trend,
``--flag-regressions`` compares each series' latest point against its
best-ever value with a direction-aware tolerance (each metric's
direction is :func:`metric_direction`, from the result schema
:mod:`repro.result_schema` that ``repro scenario diff`` reads too) and
drives a non-zero exit status for CI gating.  ``GET
/v1/history/<metric>`` reads the same history per request.

Imports from :mod:`repro.lab` are deliberately lazy: the kernel imports
:mod:`repro.obs` at interpreter start, and the lab layer sits above the
simulators, not below them.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from collections import Counter
from contextlib import closing
from operator import itemgetter
from pathlib import Path

from repro.errors import ReproError
from repro.obs.commit import current_git_commit
from repro.result_schema import BENCH_METRICS, DIRECTIONS, bare_metric

__all__ = [
    "BenchFileError",
    "History",
    "current_git_commit",
    "ingest_bench",
    "metric_direction",
    "read_history",
]


class BenchFileError(ReproError):
    """A file given to ``lab history --ingest`` that cannot be ingested."""


def metric_direction(metric: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or ``None`` (direction-free).

    A metric the result schema knows has the direction ``repro
    scenario diff`` gives it (:data:`repro.result_schema.DIRECTIONS`),
    so ``minimum_latency``, the ``T + L + 1`` bound, has none.  Any
    other name gets a suffix heuristic (``*_seconds``/``*_cycles``/
    ``*_stalls``/``*_latency`` regress upward) and otherwise stays
    unflaggable rather than guessing a direction.
    """
    if metric in DIRECTIONS:
        return DIRECTIONS[metric]
    if metric.endswith(("_seconds", "_cycles", "_stalls", "_latency")):
        return "lower"
    return None


def _numeric(value) -> float | None:
    """Booleans become 0/1; other non-numbers are not metrics."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _job_metrics(record: dict | None) -> tuple[str, str, list[tuple]]:
    """``(scenario, source fingerprint, metric rows)`` of one stored result.

    The rows are the record's numeric ``(metric, value)`` pairs, with
    ``extra:`` prefixes stripped; a missing result has none.
    """
    from repro.lab.jobs import record_metrics

    if record is None:
        return "", "", []
    scenario = fingerprint = ""
    config = record.get("config", {})
    if isinstance(config, dict):
        fingerprint = config.get("source_fingerprint", "")
        scenario = _scenario_name(config)
    rows: list[tuple] = []
    for metric, raw in record_metrics(record).items():
        value = _numeric(raw)
        if value is not None:
            rows.append((bare_metric(metric), value))
    return scenario, fingerprint, rows


def _manifest_run(manifest: dict, jobs: dict) -> tuple[dict, list]:
    """One manifest's run identity and its ``(job, metric, value,
    scenario, config hash)`` rows.

    ``jobs`` maps each config hash the scan read to its
    :func:`_job_metrics`, so runs that repeat a design point decode it
    once.
    """
    run_metrics = manifest.get("metrics", {})
    if not isinstance(run_metrics, dict):
        run_metrics = {}
    fingerprint = ""
    rows: list[tuple] = []
    for job in manifest.get("jobs", []):
        job_id = job.get("job_id", "")
        address = job.get("config_hash", "")
        scenario, job_fingerprint, metric_rows = jobs[address]
        fingerprint = fingerprint or job_fingerprint
        for metric, value in metric_rows:
            rows.append((job_id, metric, value, scenario, address))
        elapsed = _numeric(job.get("elapsed_seconds"))
        if elapsed is not None:
            rows.append(
                (job_id, "elapsed_seconds", elapsed, scenario, address)
            )
    # The run's own metrics go under the reserved job id "__run__": no
    # real job id collides (job ids come from sanitised scenario names)
    # and trends need no special casing.  Their scenario is the run's
    # batch, so a run is gated only against runs of the same jobs.
    batch = _batch_identity(
        job.get("job_id", "") for job in manifest.get("jobs", [])
    )
    for metric, raw in sorted(run_metrics.items()):
        value = _numeric(raw)
        if value is not None:
            rows.append(("__run__", metric, value, batch, ""))
    # Manifests written outside a git checkout (tarball installs,
    # detached workers) carry a null or missing git_commit.
    commit = manifest.get("git_commit")
    if not isinstance(commit, str) or not commit:
        commit = "unknown"
    run = {
        "run_id": manifest["run_id"],
        "created_at": manifest.get("created_at", ""),
        "kind": "lab",
        "git_commit": commit,
        "package_version": manifest.get("package_version", ""),
        "source_fingerprint": fingerprint,
        "backend": str(run_metrics.get("backend", "")),
        "job_count": len(manifest.get("jobs", [])),
    }
    return run, rows


def _batch_identity(job_ids) -> str:
    """A run's batch: ``batch:`` plus 12 hex digits of the SHA-256 of its
    sorted job ids, one per line; the scenario of its ``__run__``
    points."""
    text = "\n".join(sorted(map(str, job_ids)))
    return f"batch:{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def _load_bench(path: Path) -> dict | None:
    """The pytest-benchmark JSON a file holds, or None."""
    try:
        data = json.loads(path.read_text())
    except (ValueError, OSError):
        return None
    if isinstance(data, dict) and isinstance(data.get("benchmarks"), list):
        return data
    return None


def _bench_stamp(data: dict) -> tuple[str, str, dict]:
    """``(created_at, git_commit, repro_meta)`` stamp of one bench file.

    The ``repro_meta`` stamp wins; pytest-benchmark's own
    ``commit_info``/``datetime`` are the fallback.
    """
    meta = data.get("repro_meta", {})
    if not isinstance(meta, dict):
        meta = {}
    commit_info = data.get("commit_info", {})
    if not isinstance(commit_info, dict):
        commit_info = {}
    commit = meta.get("git_commit") or commit_info.get("id") or ""
    created = (
        meta.get("created_at")
        or commit_info.get("time")
        or data.get("datetime")
        or ""
    )
    return created, commit, meta


def _bench_run(run_id: str, data: dict) -> tuple[dict, list]:
    """One bench file's run identity and metric rows (see
    :func:`_manifest_run`)."""
    created, commit, meta = _bench_stamp(data)
    rows: list[tuple] = []
    for bench in data["benchmarks"]:
        if not isinstance(bench, dict):
            continue
        name = bench.get("name", "")
        stats = bench.get("stats", {})
        if not name or not isinstance(stats, dict):
            continue
        for metric, stat in BENCH_METRICS.items():
            value = _numeric(stats.get(stat))
            if value is not None:
                rows.append((str(name), metric, value, "", ""))
    run = {
        "run_id": run_id,
        "created_at": created,
        "kind": "bench",
        "git_commit": commit,
        "package_version": meta.get("package_version", ""),
        "source_fingerprint": meta.get("source_fingerprint", ""),
        "backend": "",
        "job_count": len(data["benchmarks"]),
    }
    return run, rows


def ingest_bench(store, path: str | Path) -> int:
    """Copy one pytest-benchmark JSON file into the root's ``bench/``.

    The copy holds the file's bytes and is named after its run id,
    ``bench-<created>-<digest>``: the ``repro_meta`` timestamp and a
    digest of the content, so re-ingesting a file changes nothing while
    distinct bench runs never collide.  Returns the number of metric
    points the file holds.  A missing file, or one that is not
    pytest-benchmark JSON, or whose timestamp is not a string
    (:func:`~repro.lab.manifest.stamp_fault`), raises
    :class:`BenchFileError` before anything is copied.
    """
    from repro.lab.manifest import stamp_fault
    from repro.lab.store import atomic_write

    path = Path(path)
    if not path.exists():
        raise BenchFileError(f"no such bench file: {path}")
    data = _load_bench(path) if path.is_file() else None
    if data is None:
        raise BenchFileError(
            f"{path} is not pytest-benchmark JSON; --ingest takes "
            "BENCH_*.json files only (bring another lab root's runs in "
            "with `repro lab merge <root>`)"
        )
    created, _, _ = _bench_stamp(data)
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()
    ).hexdigest()
    run_id = f"bench-{created or 'unstamped'}-{digest[:10]}"
    fault = stamp_fault(run_id, created)
    if fault is not None:
        raise BenchFileError(f"{path} records no run: {fault}")
    if Path(run_id).name != run_id:
        raise BenchFileError(
            f"{path}: its run id {run_id!r} is not a file name"
        )
    _carry_over_history_db(store)
    target = store.bench_dir / f"{run_id}.json"
    if not target.exists():
        store.bench_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(target, path.read_bytes())
    return len(_bench_run(run_id, data)[1])


def _carry_over_history_db(store) -> None:
    """Write an old root's bench runs out of its ``history.sqlite``, once.

    Before each run was recorded only in its manifest, ``lab history``
    kept a second database, ``<root>/history.sqlite``.  Each of its
    ``kind='bench'`` runs becomes ``bench/<run-id>.json``, in the shape
    :func:`_bench_run` reads.  Its lab runs are not imported: the
    manifests give them again.  Runs it took in from other roots'
    manifests are left behind.  Does nothing once ``bench/`` exists, and
    leaves the database on disk.
    """
    from repro.lab.store import atomic_write

    legacy = store.root / "history.sqlite"
    if store.bench_dir.is_dir() or not legacy.is_file():
        return
    files: dict[str, dict] = {}
    try:
        with closing(sqlite3.connect(legacy)) as db:
            for run_id, created, commit, version, fingerprint in db.execute(
                "SELECT run_id, created_at, git_commit, package_version, "
                "source_fingerprint FROM runs WHERE kind = 'bench'"
            ):
                files[run_id] = {
                    "benchmarks": {},
                    "repro_meta": {
                        "git_commit": commit,
                        "package_version": version,
                        "created_at": created,
                        "source_fingerprint": fingerprint,
                    },
                }
            for run_id, name, metric, value in db.execute(
                "SELECT run_id, job_id, metric, value FROM metrics"
            ):
                stat = BENCH_METRICS.get(metric)
                if run_id in files and stat is not None:
                    benches = files[run_id]["benchmarks"]
                    benches.setdefault(name, {})[stat] = value
    except sqlite3.DatabaseError:
        files = {}
    store.bench_dir.mkdir(parents=True, exist_ok=True)
    for run_id, data in files.items():
        if Path(run_id).name != run_id:
            continue
        data["benchmarks"] = [
            {"name": name, "stats": stats}
            for name, stats in data["benchmarks"].items()
        ]
        atomic_write(
            store.bench_dir / f"{run_id}.json", json.dumps(data, indent=2)
        )


class History:
    """Every metric point of one lab root; built by :func:`read_history`.

    A point is one ``(run, job, metric)`` value: ``run_id``, ``job_id``,
    ``metric``, ``value``, ``scenario``, ``config_hash``, ``created_at``
    and its run's ``git_commit``, ``package_version`` and ``kind``
    (``lab`` or ``bench``).
    """

    def __init__(self, runs: list[tuple[dict, list[tuple]]]):
        """``runs`` pairs each run with its ``(job, metric, value,
        scenario, config hash)`` rows; of two rows for one job and
        metric, the later one counts."""
        self._runs: list[tuple[dict, list[tuple]]] = []
        for run, rows in sorted(
            runs, key=lambda pair: (pair[0]["created_at"], pair[0]["run_id"])
        ):
            unique = {(row[0], row[1]): row for row in rows}
            rows = sorted(unique.values(), key=itemgetter(0))
            self._runs.append((run, rows))

    def runs(self) -> list[dict]:
        """Every run, oldest first."""
        return [run for run, _ in self._runs]

    def metric_names(self) -> list[tuple[str, int]]:
        """``(metric, point count)`` pairs, alphabetical."""
        counts = Counter(row[1] for _, rows in self._runs for row in rows)
        return sorted(counts.items())

    def select(
        self, metric: str | None = None, scenario: str | None = None
    ) -> list[dict]:
        """The points of ``metric`` (every metric when None), in time order.

        ``scenario`` is a case-insensitive substring filter over both the
        scenario name and the job id (bench series have no scenario, only
        a name); every character in it matches itself.  A ``__run__``
        point matches on its job id alone: its scenario is a batch
        digest, not a name.
        """
        needle = scenario.lower() if scenario else ""
        return [
            {
                "run_id": run["run_id"],
                "job_id": job_id,
                "metric": name,
                "value": value,
                "scenario": scenario_name,
                "config_hash": address,
                "created_at": run["created_at"],
                "git_commit": run["git_commit"],
                "package_version": run["package_version"],
                "kind": run["kind"],
            }
            for run, rows in self._runs
            for job_id, name, value, scenario_name, address in rows
            if (metric is None or name == metric)
            and (
                needle in job_id.lower()
                or (job_id != "__run__" and needle in scenario_name.lower())
            )
        ]

    def trend(
        self,
        metric: str,
        *,
        scenario: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """The metric's points in time order, with their run identity.

        ``scenario`` filters as in :meth:`select`; ``limit`` keeps only
        the newest N points.
        """
        points = self.select(metric, scenario)
        if limit is not None and limit >= 0:
            points = points[-limit:]
        return points

    def flag_regressions(
        self,
        *,
        metric: str | None = None,
        scenario: str | None = None,
        tolerance: float = 0.05,
        absolute_floor: float = 0.0,
    ) -> list[dict]:
        """Series whose latest point is worse than best-ever + tolerance.

        A series is one ``(job_id, scenario, metric)`` triple across runs
        (a job id has one scenario, and the ``__run__`` points of
        different batches are different series); it needs at least two
        points (one run cannot regress against itself) and a known
        metric direction (see :func:`metric_direction`).  The
        tolerance is relative to the best value; a zero best has no
        scale for a relative band, so it gets the ``absolute_floor``
        slack instead — ``0.0`` by default, meaning any strictly worse
        move off a perfect zero (stalls, waits, diff counts) is
        flagged.  (Earlier versions silently reused ``tolerance`` as
        that absolute band, so a stall count creeping from 0 to 0.05
        was never reported.)
        """
        series: dict[tuple[str, str, str], list[dict]] = {}
        for point in self.select(metric or None, scenario):
            key = (point["job_id"], point["scenario"], point["metric"])
            series.setdefault(key, []).append(point)
        flagged: list[dict] = []
        for (job_id, _scenario, name), points in sorted(series.items()):
            if len(points) < 2:
                continue
            direction = metric_direction(name)
            if direction is None:
                continue
            values = [point["value"] for point in points]
            latest = points[-1]
            best = min(values) if direction == "lower" else max(values)
            slack = abs(best) * tolerance if best != 0 else absolute_floor
            if direction == "lower":
                regressed = latest["value"] > best + slack
            else:
                regressed = latest["value"] < best - slack
            if regressed:
                flagged.append(
                    {
                        "job_id": job_id,
                        "metric": name,
                        "scenario": latest["scenario"],
                        "direction": direction,
                        "best": best,
                        "latest": latest["value"],
                        "run_id": latest["run_id"],
                        "created_at": latest["created_at"],
                        "points": len(points),
                    }
                )
        return flagged


def read_history(store) -> History:
    """Every metric point under one lab root, from one scan.

    Reads the root's manifests, the stored results they name (with one
    :meth:`~repro.lab.store.ArtifactStore.load_many`, decoding each
    distinct config hash once) and its bench files.  Of two records
    under one run id, the later one counts.  A bench file whose
    timestamp is not a string is skipped, as
    :func:`~repro.lab.manifest.read_manifests` skips such a manifest.
    """
    from repro.lab.manifest import read_manifests, stamp_fault

    _carry_over_history_db(store)
    manifests = read_manifests(store)
    addresses = [
        job.get("config_hash", "")
        for manifest in manifests
        for job in manifest.get("jobs", [])
    ]
    records = store.load_many(addresses)
    jobs = {
        address: _job_metrics(records.get(address))
        for address in dict.fromkeys(addresses)
    }
    runs: dict[str, tuple[dict, list]] = {}
    for manifest in manifests:
        run, rows = _manifest_run(manifest, jobs)
        runs[run["run_id"]] = (run, rows)
    for path in sorted(store.bench_dir.glob("*.json")):
        data = _load_bench(path)
        if data is not None:
            run, rows = _bench_run(path.stem, data)
            if stamp_fault(run["run_id"], run["created_at"]) is None:
                runs[run["run_id"]] = (run, rows)
    return History(list(runs.values()))


def _scenario_name(config: dict) -> str:
    """The scenario name embedded in a scenario job's config params."""
    params = config.get("params")
    if not isinstance(params, dict):
        return ""
    spec_text = params.get("spec")
    if not isinstance(spec_text, str):
        return ""
    try:
        spec = json.loads(spec_text)
    except json.JSONDecodeError:
        return ""
    if isinstance(spec, dict):
        return str(spec.get("name", "") or "")
    return ""
