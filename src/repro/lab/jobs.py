"""The job registry: every runnable artifact of the repo as one job.

Four kinds of jobs, all declaratively specified and content-hashable:

* ``experiment`` — one ``repro.report.experiments`` runner (E01..E16),
  optionally with explicit keyword parameters (lambda/t/s/y...) so
  sweep-style grids cache one artifact per design point;
* ``sweep`` — one :class:`repro.analysis.sweeps.SweepSpec` design-space
  sweep (S-lambda, S-t);
* ``ablation`` — one ablation bench's row builder from ``benchmarks/``
  (A1..A7), imported by file path so the bench modules stay the single
  source of truth;
* ``scenario`` — one :class:`repro.scenarios.ScenarioSpec`, carried
  verbatim (as canonical JSON) in the job params, so every distinct
  machine + workload design point is a distinct cache entry.  Specs
  with a ``program`` section travel the same way — the program kind and
  parameters are part of the canonical JSON, hence of the cache key —
  and their numerical-correctness verdict becomes the job's check.
  :func:`scenario_jobs` makes them and lints them; the JSON is parsed
  again only where each job runs.

A :class:`JobSpec` carries no callables, only strings and ints, so it
pickles trivially and hashes canonically; worker processes rebuild the
registry themselves (it is deterministic) and resolve the job id back
to the code to run.  ``execute_job`` is the worker entry point: it
returns a JSON-safe payload dict — headers, encoded rows, checks,
notes — that the artifact store persists verbatim.

The experiment runners and the design-space sweeps are imported inside
the functions that register, validate or run their jobs, so making and
running scenario jobs loads neither.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import repro
from repro.errors import ReproError
from repro.lab.hashing import (
    ArtifactCodingError,
    config_hash,
    decode_rows,
    encode_rows,
)
from repro.result_schema import METRIC_HEADERS

if TYPE_CHECKING:
    from repro.analysis.sweeps import SweepSpec
    from repro.report.experiments import ExperimentResult

EXPERIMENT_KIND = "experiment"
SWEEP_KIND = "sweep"
ABLATION_KIND = "ablation"
SCENARIO_KIND = "scenario"


class UnknownJobError(ReproError):
    """A job id that no registry entry matches."""


@dataclass(frozen=True)
class JobSpec:
    """One declaratively-specified job: id, kind and hashable params.

    :meth:`config_hash` hashes the config once per package version and
    keeps the result on the spec, outside equality, ``repr`` and the
    spool's wire format: a batch's lookup, save and crash record and
    serve's submit all reuse one hash per job.
    """

    job_id: str
    kind: str
    title: str
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    _config_hashes: dict[str, str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def config(self, package_version: str) -> dict:
        """The dict whose canonical hash addresses this job's artifact."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": {key: value for key, value in self.params},
            "package_version": package_version,
            "source_fingerprint": source_fingerprint(),
        }

    def config_hash(self, package_version: str | None = None) -> str:
        """The hash addressing this job's result under ``package_version``."""
        version = package_version or repro.__version__
        address = self._config_hashes.get(version)
        if address is None:
            address = config_hash(self.config(version))
            self._config_hashes[version] = address
        return address


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """SHA-256 over every Python source the jobs can execute.

    Folding this into every config hash ties the cache to code
    identity, not just the (often static) package version: editing the
    simulator or a bench invalidates all cached artifacts, so a stale
    EXPERIMENTS.md can never be regenerated from results the current
    code would not produce.  Covers ``src/repro`` and the ablation
    benches; cached per process (sources don't change mid-run).
    """
    digest = hashlib.sha256()
    roots = [Path(repro.__file__).resolve().parent]
    benches = benchmarks_dir()
    if benches is not None:
        roots.append(benches)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


#: Ablation benches: id -> (bench module stem, row-builder, headers, title).
ABLATION_BENCHES: dict[str, tuple[str, str, tuple[str, ...], str]] = {
    "A1": (
        "bench_ablation_buffers",
        "sweep",
        ("q", "ordered", "subsequence", "conflict-free"),
        "A1: buffer depth vs ordering discipline",
    ),
    "A2": (
        "bench_ablation_oracle",
        "coverage_grid",
        ("length", "cases", "paper CF", "oracle CF", "oracle-only"),
        "A2: structured ordering vs an oracle scheduler",
    ),
    "A3": (
        "bench_ablation_multistream",
        "interference_sweep",
        (
            "q",
            "solo latency",
            "shared total",
            "worst stream latency",
            "module waits",
            "bus util",
        ),
        "A3: two conflict-free streams sharing the memory",
    ),
    "A4": (
        "bench_ablation_dynamic",
        "compare",
        ("stride", "family", "dynamic+ordered", "static window (paper)"),
        "A4: static window vs per-stride dynamic schemes",
    ),
    "A5": (
        "bench_ablation_pseudorandom",
        "sweep",
        ("family", "paper latency", "paper CF", "random latency", "random CF"),
        "A5: paper window vs pseudo-random interleaving",
    ),
    "A6": (
        "bench_ablation_gather",
        "sweep",
        ("index population", "ordered", "scheduled", "scheme", "CF"),
        "A6: gather (indexed) access scheduling",
    ),
    "A7": (
        "bench_ablation_multiport",
        "build_rows",
        ("configuration", "total cycles", "module waits"),
        "A7: memory ports vs modules",
    ),
}


def benchmarks_dir() -> Path | None:
    """The repo's ``benchmarks/`` directory, if the checkout has one.

    Resolved relative to the installed package so the registry is
    identical in the parent and in every worker.  Returns None for
    installed-without-sources deployments, in which case ablation jobs
    simply are not registered.
    """
    candidate = Path(repro.__file__).resolve().parents[2] / "benchmarks"
    return candidate if candidate.is_dir() else None


def _sweep_job_id(spec: SweepSpec) -> str:
    return f"S-{spec.axis}"


def _sweep_params(spec: SweepSpec) -> tuple[tuple[str, object], ...]:
    return (
        ("axis", spec.axis),
        ("fixed", spec.fixed),
        ("start", spec.start),
        ("stop", spec.stop),
    )


def build_registry() -> dict[str, JobSpec]:
    """All jobs, keyed by id, in deterministic (sorted) order."""
    from repro.analysis.sweeps import STANDARD_SWEEPS
    from repro.report.experiments import registry_entries

    specs: list[JobSpec] = []
    for experiment_id, title, _runner in registry_entries():
        specs.append(JobSpec(experiment_id, EXPERIMENT_KIND, title))
    for sweep in STANDARD_SWEEPS:
        specs.append(
            JobSpec(
                _sweep_job_id(sweep),
                SWEEP_KIND,
                f"Design-space {sweep.describe()}",
                _sweep_params(sweep),
            )
        )
    if benchmarks_dir() is not None:
        for job_id, (module, function, headers, title) in sorted(
            ABLATION_BENCHES.items()
        ):
            specs.append(
                JobSpec(
                    job_id,
                    ABLATION_KIND,
                    title,
                    (("module", module), ("function", function)),
                )
            )
    return {spec.job_id: spec for spec in sorted(specs, key=lambda s: s.job_id)}


def resolve(job_id: str, registry: dict[str, JobSpec] | None = None) -> JobSpec:
    """The job registered as ``job_id`` (in ``registry``, else a fresh one)."""
    registry = registry if registry is not None else build_registry()
    try:
        return registry[job_id]
    except KeyError:
        raise UnknownJobError(f"unknown job id {job_id!r}") from None


def _experiment_base_id(job_id: str) -> str:
    """The registry experiment behind a (possibly parameterised) job id.

    Parameterised jobs encode their overrides in the id —
    ``E03[lambda_exponent=8,t=4]`` — so distinct design points keep
    distinct ids within one batch while still resolving to ``run_e03``.
    """
    return job_id.split("[", 1)[0]


def _validated_experiment_params(
    experiment_id: str, params: dict
) -> dict:
    """Check overrides against the runner's signature; returns kwargs.

    Rejecting unknown names here (rather than letting the call raise
    ``TypeError`` in a worker) keeps the failure a clear
    :class:`UnknownJobError` naming the accepted parameters — and
    guarantees a spec never silently computes something other than what
    its config hash says.
    """
    from repro.report.experiments import ALL_EXPERIMENTS

    try:
        runner = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        raise UnknownJobError(
            f"unknown experiment id {experiment_id!r}"
        ) from None
    accepted = inspect.signature(runner).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UnknownJobError(
            f"experiment {experiment_id} does not accept param(s) "
            f"{', '.join(unknown)} (accepted: "
            f"{', '.join(accepted) or 'none'})"
        )
    return dict(params)


def experiment_spec(experiment_id: str, **overrides) -> JobSpec:
    """A (possibly parameterised) experiment job.

    With no overrides this is exactly the registry entry — same id,
    same (empty) params, same config hash, so default runs keep hitting
    the historical cache entries.  With overrides, the kwargs are
    validated against the runner's signature, folded into the job id
    and hashed into the config, making every design point its own cache
    entry.
    """
    from repro.scenarios.spec import freeze_params

    base = resolve(experiment_id)
    if not overrides:
        return base
    params = freeze_params(
        _validated_experiment_params(experiment_id, overrides)
    )
    suffix = ",".join(f"{key}={value}" for key, value in params)
    return JobSpec(
        f"{experiment_id}[{suffix}]",
        EXPERIMENT_KIND,
        f"{base.title} ({suffix})",
        params,
    )


def _scenario_job(scenario) -> JobSpec:
    """Wrap one :class:`repro.scenarios.ScenarioSpec` as a lab job, unlinted.

    The spec travels verbatim (canonical JSON) in the job params, so
    the config hash — and therefore the artifact address — covers every
    field of the design point.  The job id embeds a short digest of
    that JSON: two different specs can never collide in one batch, even
    when they share a ``name``.
    """
    text = scenario.to_json()
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()[:10]
    label = f"{scenario.name}-{digest}" if scenario.name else digest
    return JobSpec(
        f"SC-{label}",
        SCENARIO_KIND,
        scenario.describe(),
        (("spec", text),),
    )


def scenario_jobs(
    specs,
    *,
    source: str = "lab submit",
    progress: Callable[[str], None] | None = None,
) -> list[JobSpec]:
    """One job per spec, in the order given, after the submit gate.

    The way every front door makes scenario jobs.  The batch is linted
    (:func:`repro.check.require_submittable`) in job-id order, the order
    ``run_jobs`` runs it in: an error finding raises ``CheckError``
    before anything is queued, and warnings go to ``progress`` as
    ``lint:`` lines.
    """
    from repro.check import require_submittable

    specs = list(specs)
    jobs = [_scenario_job(spec) for spec in specs]
    order = sorted(range(len(jobs)), key=lambda index: jobs[index].job_id)
    warnings = require_submittable(
        [specs[index] for index in order], source=source
    )
    if progress is not None:
        for finding in warnings:
            progress(f"lint: {finding.render()}")
    return jobs


def _load_bench_module(stem: str):
    directory = benchmarks_dir()
    if directory is None:
        raise UnknownJobError(
            f"ablation bench {stem!r} needs the benchmarks/ directory, "
            "which this installation does not ship"
        )
    path = directory / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"repro_lab_{stem}", path)
    if spec is None or spec.loader is None:
        raise UnknownJobError(f"cannot load bench module {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _experiment_payload(result: ExperimentResult) -> dict:
    return {
        "title": result.title,
        "headers": list(result.headers),
        "rows": encode_rows(result.rows),
        "checks": [
            {
                "claim": check.claim,
                "expected": check.expected,
                "measured": check.measured,
                "passed": check.passed,
            }
            for check in result.checks
        ],
        "notes": list(result.notes),
        "all_passed": result.all_passed,
    }


def _table_payload(title: str, headers, rows) -> dict:
    return {
        "title": title,
        "headers": list(headers),
        "rows": encode_rows(rows),
        "checks": [],
        "notes": [],
        "all_passed": True,
    }


def _scenario_payload(spec: JobSpec) -> dict:
    from repro.scenarios import ScenarioSpec, simulate

    params = dict(spec.params)
    if "spec" not in params:
        raise UnknownJobError(
            f"scenario job {spec.job_id!r} carries no 'spec' param"
        )
    scenario = ScenarioSpec.from_json(params["spec"])
    result = simulate(scenario)
    payload = _table_payload(
        spec.title or scenario.describe(),
        METRIC_HEADERS,
        result.metric_rows(),
    )
    payload["notes"] = [scenario.describe()]
    # Program scenarios carry an end-to-end correctness verdict: surface
    # it as a check so a miscomputing design point fails the job (and
    # shows up as a regression in `repro lab diff`).
    correct = dict(result.extras).get("numerically_correct")
    if correct is not None:
        payload["checks"] = [
            {
                "claim": "program outputs are numerically correct",
                "expected": True,
                "measured": correct,
                "passed": bool(correct),
            }
        ]
        payload["all_passed"] = bool(correct)
    return payload


def record_metrics(record: dict) -> dict:
    """The ``{metric: value}`` of a stored scenario record, in row order.

    The inverse of :func:`_scenario_payload`'s table: each row's name as
    ``ScenarioResult.metric_rows`` gives it (``extra:`` prefixes kept),
    its value decoded.  A record of another shape (an experiment's
    table, a crashed job's record) or one that does not decode holds
    none.
    """
    if record.get("headers") != list(METRIC_HEADERS):
        return {}
    try:
        rows = decode_rows(record.get("rows", []))
    except (ArtifactCodingError, TypeError, ValueError, ZeroDivisionError):
        return {}
    return {str(row[0]): row[1] for row in rows if len(row) == 2}


def execute_job(job: str | JobSpec) -> dict:
    """Run one job and return its JSON-safe payload (worker entry point).

    Accepts either a job id (resolved against the registry) or a full
    :class:`JobSpec` — the form the executor ships to workers, so that
    the executed config is exactly the one the result is cached under.
    Experiment params are validated against the runner's signature;
    ablation jobs cannot carry custom params, and a spec whose params
    differ from the registry's is rejected rather than silently
    computing the registry default.
    """
    spec = resolve(job) if isinstance(job, str) else job
    if spec.kind == ABLATION_KIND:
        registered = resolve(spec.job_id)
        if spec.params != registered.params:
            raise UnknownJobError(
                f"job {spec.job_id!r} does not support custom params "
                f"{dict(spec.params)!r} (registry has "
                f"{dict(registered.params)!r})"
            )
    started = time.perf_counter()
    if spec.kind == EXPERIMENT_KIND:
        from repro.report.experiments import ALL_EXPERIMENTS

        base_id = _experiment_base_id(spec.job_id)
        kwargs = _validated_experiment_params(base_id, dict(spec.params))
        payload = _experiment_payload(ALL_EXPERIMENTS[base_id](**kwargs))
    elif spec.kind == SCENARIO_KIND:
        payload = _scenario_payload(spec)
    elif spec.kind == SWEEP_KIND:
        from repro.analysis.sweeps import SweepSpec

        params = dict(spec.params)
        sweep = SweepSpec(
            axis=params["axis"],
            fixed=params["fixed"],
            start=params["start"],
            stop=params["stop"],
        )
        headers, rows = sweep.table()
        payload = _table_payload(spec.title, headers, rows)
    elif spec.kind == ABLATION_KIND:
        module_stem, function, headers, title = ABLATION_BENCHES[spec.job_id]
        module = _load_bench_module(module_stem)
        rows = getattr(module, function)()
        payload = _table_payload(title, list(headers), rows)
    else:  # pragma: no cover - registry only emits the three kinds
        raise UnknownJobError(
            f"job {spec.job_id!r} has unknown kind {spec.kind!r}"
        )
    payload["job_id"] = spec.job_id
    payload["kind"] = spec.kind
    payload["elapsed_seconds"] = time.perf_counter() - started
    return payload
