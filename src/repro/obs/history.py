"""Cross-run history: a SQLite index of manifests and bench artifacts.

``repro lab diff`` compares exactly two runs and the CI perf artifacts
(``BENCH_*.json``) were write-only; this module is the missing memory.
A :class:`HistoryDB` ingests

* **run manifests** (``runs/<run-id>/manifest.json``) — every job's
  elapsed time plus, for scenario jobs, every ``metric_rows()`` scalar
  (``total_cycles``, ``efficiency``, ``overlap_fraction``, ...) decoded
  from the job's artifact record, and the run-level metrics block
  (cache-hit rate, backend worker counts, queue latencies) under
  the reserved job id ``__run__``;
* **pytest-benchmark JSON** (``BENCH_simulator_perf.json``) — per-bench
  mean/min wall seconds, ordered by the ``repro_meta`` stamp
  (git commit + package version + timestamp) that
  ``benchmarks/conftest.py`` injects.

Everything lands in two tables.  ``runs`` records each ingested run's
identity (commit, package version, source fingerprint, backend);
``metrics`` holds one row per (run, job, metric) keyed alongside the
job's config hash and source fingerprint, so a metric series can be
split by code identity.  Ingestion is idempotent — rows are upserted
under their natural key — so re-scanning a lab root is always safe.

``repro lab history`` is the CLI face: ``--metric`` renders a trend,
``--flag-regressions`` compares each series' latest point against its
best-ever value with a direction-aware tolerance (reusing the metric
direction vocabulary of :mod:`repro.scenarios.diff`) and drives a
non-zero exit status for CI gating.

Imports from :mod:`repro.lab` are deliberately lazy: the kernel imports
:mod:`repro.obs` at interpreter start, and the lab layer sits above the
simulators, not below them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import subprocess
from contextlib import closing
from pathlib import Path

__all__ = [
    "HistoryDB",
    "HISTORY_FILENAME",
    "current_git_commit",
    "metric_direction",
]

#: Default history DB filename inside a lab root.
HISTORY_FILENAME = "history.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL DEFAULT 'lab',
    git_commit TEXT NOT NULL DEFAULT '',
    package_version TEXT NOT NULL DEFAULT '',
    source_fingerprint TEXT NOT NULL DEFAULT '',
    backend TEXT NOT NULL DEFAULT '',
    job_count INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    job_id TEXT NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL,
    scenario TEXT NOT NULL DEFAULT '',
    config_hash TEXT NOT NULL DEFAULT '',
    source_fingerprint TEXT NOT NULL DEFAULT '',
    created_at TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (run_id, job_id, metric)
);
CREATE INDEX IF NOT EXISTS idx_metrics_metric
    ON metrics (metric, created_at);
"""

#: Bench/lab metric names (beyond the scenario vocabulary) where
#: smaller is better.  Everything wall-clock shaped regresses upward.
_LOWER_IS_BETTER_EXTRA = frozenset(
    {
        "total_cycles",
        "elapsed_seconds",
        "mean_seconds",
        "min_seconds",
        "max_seconds",
        "median_seconds",
    }
)

_HIGHER_IS_BETTER_EXTRA = frozenset(
    {"all_passed", "cache_hit_rate", "ops", "numerically_correct"}
)


def metric_direction(metric: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or ``None`` (direction-free).

    Defers to the scenario diff vocabulary (stripped of its ``extra:``
    prefixes) and extends it with the wall-clock metrics history
    ingests from manifests and bench JSON; unknown metrics get a suffix
    heuristic (``*_seconds``/``*_cycles``/``*_stalls`` regress upward)
    and otherwise stay unflaggable rather than guessing a direction.
    """
    from repro.scenarios.diff import (
        HIGHER_IS_WORSE,
        LOWER_IS_WORSE,
        MUST_STAY_TRUE,
    )

    def _strip(names) -> set[str]:
        return {name.split(":", 1)[-1] for name in names}

    if metric in _strip(HIGHER_IS_WORSE) | _LOWER_IS_BETTER_EXTRA:
        return "lower"
    if (
        metric
        in _strip(LOWER_IS_WORSE)
        | _strip(MUST_STAY_TRUE)
        | _HIGHER_IS_BETTER_EXTRA
    ):
        return "higher"
    if metric.endswith(("_seconds", "_cycles", "_stalls", "_latency")):
        return "lower"
    return None


_COMMIT_CACHE: dict[str, str] = {}


def current_git_commit(cwd: str | Path | None = None) -> str:
    """The source checkout's commit hash, or ``""`` outside a repo.

    Prefers ``$GITHUB_SHA`` (set in CI even for shallow checkouts),
    then asks ``git rev-parse`` in ``cwd`` — defaulting to the
    installed ``repro`` package's own directory, so lab runs launched
    from a scratch directory still stamp the commit of the *code* that
    produced them; cached per directory since a process never changes
    commit mid-run.
    """
    env_sha = os.environ.get("GITHUB_SHA", "")
    if env_sha:
        return env_sha
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    key = str(Path(cwd).resolve())
    if key in _COMMIT_CACHE:
        return _COMMIT_CACHE[key]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
            check=False,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    _COMMIT_CACHE[key] = commit
    return commit


def _numeric(value) -> float | None:
    """Booleans become 0/1; other non-numbers are not metrics."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


class HistoryDB:
    """The ``runs`` + ``metrics`` cross-run index, one SQLite file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.path)
        connection.executescript(_SCHEMA)
        return connection

    # -- ingestion -------------------------------------------------------

    def ingest_manifest(self, manifest_path: str | Path, store=None) -> int:
        """Upsert one run manifest (and its jobs' artifact metrics).

        ``store`` is the :class:`~repro.lab.store.ArtifactStore` the
        manifest belongs to; when omitted it is derived from the
        manifest's ``<root>/runs/<run-id>/manifest.json`` location.
        Returns the number of metric rows upserted (0 for an unreadable
        or id-less manifest).
        """
        from repro.lab.hashing import decode_rows
        from repro.lab.store import ArtifactStore

        path = Path(manifest_path)
        if store is None and len(path.parents) >= 3:
            with ArtifactStore(path.parents[2]) as owned:
                return self.ingest_manifest(path, owned)
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return 0
        if not isinstance(manifest, dict) or "run_id" not in manifest:
            return 0
        run_id = manifest["run_id"]
        created = manifest.get("created_at", "")
        run_metrics = manifest.get("metrics", {})
        backend = ""
        if isinstance(run_metrics, dict):
            backend = str(run_metrics.get("backend", ""))
        fingerprint = ""
        rows: list[tuple] = []
        for job in manifest.get("jobs", []):
            job_id = job.get("job_id", "")
            address = job.get("config_hash", "")
            scenario = ""
            job_fingerprint = ""
            record = store.load(address) if store is not None else None
            if record is not None:
                config = record.get("config", {})
                if isinstance(config, dict):
                    job_fingerprint = config.get("source_fingerprint", "")
                    fingerprint = fingerprint or job_fingerprint
                    scenario = _scenario_name(config)
                if record.get("headers") == ["metric", "value"]:
                    try:
                        decoded = decode_rows(record.get("rows", []))
                    except Exception:
                        decoded = []
                    for row in decoded:
                        if len(row) != 2:
                            continue
                        value = _numeric(row[1])
                        if value is None:
                            continue
                        metric = str(row[0])
                        if metric.startswith("extra:"):
                            metric = metric[len("extra:"):]
                        rows.append(
                            (
                                run_id,
                                job_id,
                                metric,
                                value,
                                scenario,
                                address,
                                job_fingerprint,
                                created,
                            )
                        )
            elapsed = _numeric(job.get("elapsed_seconds"))
            if elapsed is not None:
                rows.append(
                    (
                        run_id,
                        job_id,
                        "elapsed_seconds",
                        elapsed,
                        scenario,
                        address,
                        job_fingerprint,
                        created,
                    )
                )
        # Run-level manifest metrics (cache-hit rate, queue latencies,
        # backend counts like pool_workers / spool_workers) were
        # previously written to manifest.json and then dropped at
        # ingest, so `lab history` could never trend a run's metrics.
        # They land under the reserved job id "__run__" — no real job
        # id collides (job ids come from sanitised scenario names) and
        # the trend/regression queries need no special casing.
        if isinstance(run_metrics, dict):
            for metric, raw in sorted(run_metrics.items()):
                value = _numeric(raw)
                if value is None:
                    continue
                rows.append(
                    (
                        run_id,
                        "__run__",
                        metric,
                        value,
                        "",
                        "",
                        fingerprint,
                        created,
                    )
                )
        # Manifests written outside a git checkout (tarball installs,
        # detached workers) carry a null/missing git_commit; the runs
        # table column is NOT NULL, so stamp "unknown" and keep the row
        # rather than crashing the whole ingest.
        commit = manifest.get("git_commit")
        if not isinstance(commit, str) or not commit:
            commit = "unknown"
        with closing(self._connect()) as connection, connection:
            connection.execute(
                "INSERT OR REPLACE INTO runs (run_id, created_at, kind, "
                "git_commit, package_version, source_fingerprint, backend, "
                "job_count) VALUES (?, ?, 'lab', ?, ?, ?, ?, ?)",
                (
                    run_id,
                    created,
                    commit,
                    manifest.get("package_version", ""),
                    fingerprint,
                    backend,
                    len(manifest.get("jobs", [])),
                ),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO metrics (run_id, job_id, metric, "
                "value, scenario, config_hash, source_fingerprint, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def ingest_store(self, store) -> dict:
        """Scan a lab root's ``runs/`` directory; returns counts."""
        manifests = 0
        metrics = 0
        runs_dir = getattr(store, "runs_dir", None)
        if runs_dir is not None and Path(runs_dir).is_dir():
            for path in sorted(Path(runs_dir).glob("*/manifest.json")):
                count = self.ingest_manifest(path, store=store)
                manifests += 1
                metrics += count
        return {"manifests": manifests, "metrics": metrics}

    def ingest_bench(self, bench_path: str | Path) -> int:
        """Upsert one pytest-benchmark JSON artifact.

        Run identity comes from the ``repro_meta`` stamp when present
        (git commit + timestamp), falling back to pytest-benchmark's
        own ``commit_info``/``datetime``; the run id also folds in a
        content digest, so re-ingesting the same file is idempotent
        while distinct bench runs never collide.
        """
        path = Path(bench_path)
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return 0
        benches = data.get("benchmarks") if isinstance(data, dict) else None
        if not isinstance(benches, list):
            return 0
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
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True, default=str).encode()
        ).hexdigest()
        run_id = f"bench-{created or 'unstamped'}-{digest[:10]}"
        fingerprint = meta.get("source_fingerprint", "")
        rows: list[tuple] = []
        for bench in benches:
            if not isinstance(bench, dict):
                continue
            name = bench.get("name", "")
            stats = bench.get("stats", {})
            if not name or not isinstance(stats, dict):
                continue
            for metric in ("mean", "min", "max", "median"):
                value = _numeric(stats.get(metric))
                if value is not None:
                    rows.append(
                        (
                            run_id,
                            name,
                            f"{metric}_seconds",
                            value,
                            "",
                            "",
                            fingerprint,
                            created,
                        )
                    )
        with closing(self._connect()) as connection, connection:
            connection.execute(
                "INSERT OR REPLACE INTO runs (run_id, created_at, kind, "
                "git_commit, package_version, source_fingerprint, backend, "
                "job_count) VALUES (?, ?, 'bench', ?, ?, ?, '', ?)",
                (
                    run_id,
                    created,
                    commit,
                    meta.get("package_version", ""),
                    fingerprint,
                    len(benches),
                ),
            )
            connection.executemany(
                "INSERT OR REPLACE INTO metrics (run_id, job_id, metric, "
                "value, scenario, config_hash, source_fingerprint, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def ingest_path(self, target: str | Path, store=None) -> int:
        """Dispatch by shape: run dir, manifest, lab root, or bench JSON.

        Returns metric rows upserted.  Unrecognised paths ingest 0 rows
        rather than raising — the CLI reports the count, which makes a
        misspelt path visible without killing a batch ingest.
        """
        path = Path(target)
        if path.is_dir():
            if (path / "manifest.json").is_file():
                return self.ingest_manifest(path / "manifest.json", store)
            if (path / "runs").is_dir():
                from repro.lab.store import ArtifactStore

                with ArtifactStore(path) as lab:
                    return self.ingest_store(lab)["metrics"]
            return 0
        if not path.is_file():
            return 0
        if path.name == "manifest.json":
            return self.ingest_manifest(path, store)
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return 0
        if isinstance(data, dict) and "benchmarks" in data:
            return self.ingest_bench(path)
        if isinstance(data, dict) and "run_id" in data:
            return self.ingest_manifest(path, store)
        return 0

    # -- queries ---------------------------------------------------------

    def runs(self) -> list[dict]:
        """Every ingested run, oldest first."""
        if not self.path.is_file():
            return []
        with closing(self._connect()) as connection:
            connection.row_factory = sqlite3.Row
            rows = connection.execute(
                "SELECT * FROM runs ORDER BY created_at, run_id"
            ).fetchall()
        return [dict(row) for row in rows]

    def metric_names(self) -> list[tuple[str, int]]:
        """``(metric, point count)`` pairs, alphabetical."""
        if not self.path.is_file():
            return []
        with closing(self._connect()) as connection:
            rows = connection.execute(
                "SELECT metric, COUNT(*) FROM metrics GROUP BY metric "
                "ORDER BY metric"
            ).fetchall()
        return [(metric, count) for metric, count in rows]

    def trend(
        self,
        metric: str,
        *,
        scenario: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """The metric's points in time order, joined with run identity.

        ``scenario`` is a substring filter over both the scenario name
        and the job id (bench series have no scenario, only a name).
        ``limit`` keeps only the newest N points.
        """
        if not self.path.is_file():
            return []
        query = (
            "SELECT m.run_id, m.job_id, m.metric, m.value, m.scenario, "
            "m.config_hash, m.created_at, r.git_commit, r.package_version, "
            "r.kind FROM metrics m LEFT JOIN runs r USING (run_id) "
            "WHERE m.metric = ?"
        )
        params: list = [metric]
        if scenario:
            query += " AND (m.scenario LIKE ? OR m.job_id LIKE ?)"
            params += [f"%{scenario}%", f"%{scenario}%"]
        query += " ORDER BY m.created_at, m.run_id, m.job_id"
        with closing(self._connect()) as connection:
            connection.row_factory = sqlite3.Row
            rows = [dict(row) for row in connection.execute(query, params)]
        if limit is not None and limit >= 0:
            rows = rows[-limit:]
        return rows

    def flag_regressions(
        self,
        *,
        metric: str | None = None,
        scenario: str | None = None,
        tolerance: float = 0.05,
        absolute_floor: float = 0.0,
    ) -> list[dict]:
        """Series whose latest point is worse than best-ever + tolerance.

        A series is one ``(job_id, metric)`` pair across runs; it needs
        at least two points (one run cannot regress against itself) and
        a known metric direction (see :func:`metric_direction`).  The
        tolerance is relative to the best value; a zero best has no
        scale for a relative band, so it gets the ``absolute_floor``
        slack instead — ``0.0`` by default, meaning any strictly worse
        move off a perfect zero (stalls, waits, diff counts) is
        flagged.  (Earlier versions silently reused ``tolerance`` as
        that absolute band, so a stall count creeping from 0 to 0.05
        was never reported.)
        """
        if not self.path.is_file():
            return []
        query = (
            "SELECT m.job_id, m.metric, m.value, m.run_id, m.scenario, "
            "m.created_at FROM metrics m WHERE 1=1"
        )
        params: list = []
        if metric:
            query += " AND m.metric = ?"
            params.append(metric)
        if scenario:
            query += " AND (m.scenario LIKE ? OR m.job_id LIKE ?)"
            params += [f"%{scenario}%", f"%{scenario}%"]
        query += " ORDER BY m.created_at, m.run_id"
        with closing(self._connect()) as connection:
            connection.row_factory = sqlite3.Row
            rows = [dict(row) for row in connection.execute(query, params)]
        series: dict[tuple[str, str], list[dict]] = {}
        for row in rows:
            series.setdefault((row["job_id"], row["metric"]), []).append(row)
        flagged: list[dict] = []
        for (job_id, name), points in sorted(series.items()):
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
