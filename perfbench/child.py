"""One cold lab pass: a fresh interpreter sweeps the seeded grids.

Run by ``run.py`` as ``python3 perfbench/child.py <request.json>``, with
``PYTHONPATH`` pointing at the checkout's ``src``.  The request names the
grid files, a fresh lab root and where to write the result.  The child
imports ``repro`` and parses the grid files (its set-up), then runs each
grid file through ``repro lab sweep --backend serial`` exactly as a user
would, fetches every result by config hash from the store and checks
it.  Between grids it samples the host-speed probes (``hostspeed.py``)
and reports each sweep in reference seconds.  With ``setup_only`` it
stops after set-up; with ``trace`` it wraps the layer functions
(``layers.py``), skips the probes and reports raw layer self times.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    trace = None
    if request.get("trace"):
        import layers

        trace = layers.LayerTrace()
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401
    import repro.scenarios
    from repro.lab import ArtifactStore

    import_end = time.perf_counter()
    if trace is not None:
        trace.install()
        trace.span("cli.import", import_start, import_end)
    grid_points = [
        len(repro.scenarios.load_grid(Path(path).read_text()).expand())
        for path in request["grids"]
    ]
    ready, ready_cpu = time.monotonic(), time.process_time()
    speed = hostspeed.HostSpeed(Path(request["out"]).parent)
    samples = [] if trace is not None else [speed.sample()]
    setup_s = ready - request["spawned_at"]
    result = {
        "setup_s": hostspeed.scaled(setup_s, ready_cpu, *samples) if samples else setup_s,
        "import_s": import_end - import_start,
        "points": sum(grid_points),
    }
    if request.get("setup_only"):
        Path(request["out"]).write_text(json.dumps(result))
        return 0

    import verify

    root = Path(request["root"])
    store = ArtifactStore(root)
    runs_seen: set[str] = set()
    run_latencies, fetch_latencies, failures = [], [], []
    simulated: dict[str, dict] = {}
    attempted = failed = 0
    body_s = 0.0
    body_start = time.perf_counter()
    for path, points in zip(request["grids"], grid_points):
        attempted += points
        started, cpu_started = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(
                ["lab", "sweep", path, "--backend", "serial", "--root", str(root)]
            )
        run_wall = time.perf_counter() - started
        run_cpu = time.process_time() - cpu_started
        client_start = time.perf_counter()
        runs_dir = root / "runs"
        new_runs = sorted(
            entry.name
            for entry in (runs_dir.iterdir() if runs_dir.is_dir() else ())
            if entry.name not in runs_seen
        )
        runs_seen.update(new_runs)
        jobs = []
        for run in new_runs:
            manifest = json.loads((runs_dir / run / "manifest.json").read_text())
            jobs.extend(manifest["jobs"])
        if code != 0 or len(jobs) != points:
            failures.append(f"{Path(path).name}: exit {code}, {len(jobs)}/{points} jobs")
        bad_points = max(0, points - len(jobs))  # jobs the run never reported
        fetches = []
        for job in jobs:
            fetch_start = time.perf_counter()
            raw = store.artifact_bytes(job["config_hash"])
            fetches.append(time.perf_counter() - fetch_start)
            if raw is None:
                problems = ["artifact missing"]
            else:
                record = json.loads(raw)
                problems = verify.check_record(record, job["config_hash"])
                simulated[verify.point_name(record)] = verify.rows_of(record)
            if problems:
                bad_points += 1
                failures.append(f"{job['job_id']}: {'; '.join(problems)}")
        failed += min(points, bad_points)
        segment_wall = time.perf_counter() - started
        segment_cpu = time.process_time() - cpu_started
        if trace is not None:
            trace.span("bench.client", client_start, time.perf_counter())
            run_latencies.append(run_wall)
            fetch_latencies.extend(fetches)
            body_s += segment_wall
            continue
        # Probes sit between grids and are not part of the body time.
        samples.append(speed.sample())
        around = samples[-2:]
        run_latencies.append(hostspeed.scaled(run_wall, run_cpu, *around))
        factor = hostspeed.cpu_factor(*around)
        fetch_latencies.extend(latency * factor for latency in fetches)
        body_s += hostspeed.scaled(segment_wall, segment_cpu, *around)
    body_end = time.perf_counter()
    result.update(
        body_s=body_s,
        host_body_s=body_end - body_start,
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        runs=run_latencies,
        fetches=fetch_latencies,
        digest=verify.digest(simulated),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace is not None:
        trace.uninstall()
        result["trace"] = trace.record(import_start, body_end)
    Path(request["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
