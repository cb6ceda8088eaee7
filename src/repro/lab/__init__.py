"""repro.lab — parallel experiment orchestration with result caching.

The lab turns everything this repository can measure — the E01..E16
paper-reproduction experiments, the design-space sweeps and the A1..A7
ablation benches — into declaratively-specified jobs that fan out over
a pluggable execution backend and land in a content-addressed result
store:

* :mod:`repro.lab.jobs` — the job registry and worker entry point,
  including parameterised experiment jobs (``experiment_spec``) and
  scenario jobs (``scenario_jobs``, which lints a batch of
  :class:`repro.scenarios.ScenarioSpec` and carries each full spec into
  its cache key);
* :mod:`repro.lab.hashing` — canonical config hashing + cell codecs;
* :mod:`repro.lab.store` — one SQLite index per lab root holding
  every result's JSON record, ``merge`` for folding detached stores
  back in, ``verify`` for recomputing stored config hashes;
* :mod:`repro.lab.backends` — the :class:`ExecutorBackend` protocol
  and its in-process implementations;
* :mod:`repro.lab.spool` — the filesystem-spool sharding protocol
  (coordinator + ``repro lab worker`` loop);
* :mod:`repro.lab.executor` — cache-aware batch execution over any
  backend, each job id once;
* :mod:`repro.lab.manifest` — per-run manifest.json / report.md, the
  only record of a run, and the byte-stable EXPERIMENTS.md renderer;
* :mod:`repro.lab.diffing` — cross-run regression diffing
  (``repro lab diff``).

The diffing and spool names load on first use, and the experiment
runners only when a job needs them, so a scenario sweep imports none
of them.

## Backends

Every ``run_jobs`` call (and ``repro lab run|sweep --backend ...``)
executes its cache misses through one of:

* ``serial`` — :class:`SerialBackend`: everything in this process, in
  order.  Zero dependencies, deterministic scheduling; what tests and
  debuggers want.
* ``pool`` — :class:`ProcessPoolBackend` (default): one worker process
  per CPU via ``ProcessPoolExecutor``; single-job batches short-circuit
  to in-process execution.  One-machine parallelism.
* ``spool`` — :class:`SpoolBackend`: the coordinator writes pending
  jobs as JSON files under ``<lab-root>/spool/<run-id>/pending/``; any
  number of ``repro lab worker`` processes — on this host or any host
  sharing the directory — claim jobs via atomic rename, execute them,
  and write results into ``done/``.  Stale claims (dead workers) are
  requeued by heartbeat age.  Shard-anywhere parallelism.

All three produce byte-identical ``report.md`` for the same batch
against the same store state; backends only decide *where* jobs run,
never what gets recorded.

Quickstart::

    from repro.lab import ArtifactStore, build_registry, run_jobs

    store = ArtifactStore(".repro-lab")
    registry = build_registry()
    report = run_jobs(registry.values(), store=store)
    assert report.all_passed          # every paper check reproduced
    rerun = run_jobs(registry.values(), store=store)
    assert rerun.cache_hits == len(registry)   # second pass is free

The CLI front end is
``repro lab run|sweep|worker|merge|status|summarize|index|diff``.
"""

from repro import _lazy_exports
from repro.lab.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    JobFailure,
    ProcessPoolBackend,
    SerialBackend,
    UnknownBackendError,
    default_worker_count,
    resolve_backend,
)
from repro.lab.executor import (
    ExecutionReport,
    JobOutcome,
    new_run_id,
    run_jobs,
)
from repro.lab.hashing import (
    ArtifactCodingError,
    canonical_json,
    config_hash,
    decode_rows,
    encode_rows,
)
from repro.lab.jobs import (
    ABLATION_KIND,
    EXPERIMENT_KIND,
    SCENARIO_KIND,
    SWEEP_KIND,
    JobSpec,
    UnknownJobError,
    build_registry,
    execute_job,
    experiment_spec,
    resolve,
    scenario_jobs,
)
from repro.lab.manifest import (
    cached_records,
    read_manifests,
    recent_run_metrics,
    render_experiments_markdown,
    render_lab_report,
    status_payload,
    summarize_cached,
    write_run_artifacts,
)
from repro.lab.store import ArtifactStore, StoreMergeError, default_lab_root

_EXPORTS = {
    **dict.fromkeys(
        ("JobDiff", "RunDiff", "UnknownRunError", "diff_runs", "render_diff"),
        "repro.lab.diffing",
    ),
    **dict.fromkeys(
        (
            "SpoolBackend",
            "SpoolError",
            "SpoolRun",
            "WorkerStats",
            "job_from_json",
            "job_to_json",
            "serve",
        ),
        "repro.lab.spool",
    ),
}

__all__ = [
    "ABLATION_KIND",
    "ArtifactCodingError",
    "ArtifactStore",
    "BACKEND_NAMES",
    "EXPERIMENT_KIND",
    "ExecutionReport",
    "ExecutorBackend",
    "JobDiff",
    "JobFailure",
    "JobOutcome",
    "JobSpec",
    "ProcessPoolBackend",
    "RunDiff",
    "SCENARIO_KIND",
    "SWEEP_KIND",
    "SerialBackend",
    "SpoolBackend",
    "SpoolError",
    "SpoolRun",
    "StoreMergeError",
    "UnknownBackendError",
    "UnknownJobError",
    "UnknownRunError",
    "WorkerStats",
    "build_registry",
    "cached_records",
    "canonical_json",
    "config_hash",
    "decode_rows",
    "default_lab_root",
    "default_worker_count",
    "diff_runs",
    "encode_rows",
    "execute_job",
    "experiment_spec",
    "job_from_json",
    "job_to_json",
    "new_run_id",
    "read_manifests",
    "recent_run_metrics",
    "render_diff",
    "render_experiments_markdown",
    "render_lab_report",
    "resolve",
    "resolve_backend",
    "run_jobs",
    "scenario_jobs",
    "serve",
    "status_payload",
    "summarize_cached",
    "write_run_artifacts",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
