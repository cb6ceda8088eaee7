"""The repository benchmark: three seeded workloads, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload access-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table each

Workloads (see ``inputs.py`` for the seeded specs):

* ``access-sweep`` — 24 seeded grids (1152 planner-drive points, 10%
  indexed, 10% Figure 6) swept through ``repro lab sweep --backend
  serial`` into a fresh lab root, one grid per run.
* ``program-grid`` — 16 seeded grids (128 whole-program points over
  every registered program kind) through the same path.
* ``serve-mix`` — a ``repro lab serve`` subprocess on a fresh root,
  driven by a closed loop of two clients that POST small grids (half of
  them repeats, so cache hits), poll each run to completion and fetch
  every result by config hash (repeats with ``If-None-Match``).

Each lab-workload pass is a fresh interpreter (``child.py``) with a
fresh lab root, so plan and machine caches start cold as in a user's
CLI call.  Children get ``PYTHONPATH=<checkout>/src`` and an
environment without the ``REPRO_PLAN_CACHE*``, ``REPRO_MACHINE_CACHE``
and ``REPRO_LAB_ROOT`` overrides, and no engine/worker flags.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with every layer function wrapped (``layers.py``) and
reports per-layer metrics instead, normalised per pass (lab workloads)
or per completed serve run.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An operation is one
design point delivered to the client; it fails if its run fails, its
fetch is not a 200/304, or its artifact violates a check in
``verify.py``.  For the default seed the digest of the simulated
statistics must also match ``digests.json``.  Host times are scaled to a
reference host by ``hostspeed.py``; ``README.md`` explains how.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import inputs
import layers
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-up samples per run: passes (or the serve server) plus set-up-only
#: interpreters, of which the median is reported.
SETUP_SAMPLES = 5
PROCESS_TIMEOUT = 60.0
POLL_SECONDS = 0.005
#: serve-mix digest: the first new grids of each client, which every run
#: completes long before its deadline.
SERVE_DIGEST_GRIDS = 8
#: The server keeps every run it served, so its memory grows with the
#: run count; its peak is read when this many runs have completed (or at
#: the end of a slower window), so host speed does not move it.
SERVE_RSS_RUNS = 300


def child_env() -> dict[str, str]:
    """The pinned environment every program process runs under."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_PLAN_CACHE")
        and key not in ("REPRO_MACHINE_CACHE", "REPRO_LAB_ROOT")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_line() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"env: python {platform.python_version()}, numpy {numpy_version}, "
        f"nproc {os.cpu_count()}"
    )


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_process(args: list[str], timeout: float = PROCESS_TIMEOUT) -> int:
    """Run one program process to completion; kill it on timeout."""
    process = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL
    )
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return -1


# -- lab workloads ------------------------------------------------------------


def lab_child(request: dict, work: Path, name: str) -> dict | None:
    """One cold ``child.py`` interpreter; its result, or None on a crash."""
    request_path = work / f"{name}.request.json"
    out = work / f"{name}.result.json"
    request["out"] = str(out)
    request["spawned_at"] = time.monotonic()
    request_path.write_text(json.dumps(request))
    code = run_process([sys.executable, str(HERE / "child.py"), str(request_path)])
    if code != 0 or not out.is_file():
        return None
    return json.loads(out.read_text())


def run_lab(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    plan = inputs.write_inputs(workload, seed, work / "inputs")
    points = 0
    passes, setups, crashes = [], [], 0
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        index = len(passes) + crashes
        result = lab_child(
            {"grids": plan["grids"], "root": str(work / f"lab-{index}"), "trace": trace},
            work,
            f"pass-{index}",
        )
        shutil.rmtree(work / f"lab-{index}", ignore_errors=True)
        if result is None:
            crashes += 1
            if crashes >= 2:
                break
            continue
        points = result["points"]
        passes.append(result)
        setups.append(result["setup_s"])
    for index in range(0 if trace else max(0, SETUP_SAMPLES - len(setups))):
        result = lab_child(
            {"grids": plan["grids"], "setup_only": True}, work, f"setup-{index}"
        )
        if result is not None:
            setups.append(result["setup_s"])
    attempted = points * (len(passes) + crashes) or 1
    failed = sum(p["failed"] for p in passes) + points * crashes
    failures = [line for p in passes for line in p["failures"]]
    if crashes:
        failures.append(f"{crashes} pass interpreter(s) crashed or timed out")
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": sorted({p["digest"] for p in passes}),
    }
    if not passes:
        outcome["metrics"] = {}
        return outcome
    if trace:
        outcome["metrics"] = layer_metrics([p["trace"] for p in passes], len(passes))
        outcome["unit"] = "pass"
        outcome["absent"] = passes[0]["trace"]["absent"]
        return outcome
    runs = [latency for p in passes for latency in p["runs"]]
    fetches = [latency for p in passes for latency in p["fetches"]]
    factor = statistics.mean(p["body_s"] / p["host_body_s"] for p in passes)
    outcome["scaling"] = f"host times scaled to the reference host (x{factor:.3f} on average)"
    outcome["metrics"] = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "points_per_s": (
            statistics.median(p["attempted"] / p["body_s"] for p in passes),
            "1/s",
            len(passes),
        ),
        "runs_per_s": (
            statistics.median(len(p["runs"]) / p["body_s"] for p in passes),
            "1/s",
            len(passes),
        ),
        "submit_p50_ms": (1000 * percentile(runs, 0.50), "ms", len(runs)),
        "submit_p99_ms": (1000 * percentile(runs, 0.99), "ms", len(runs)),
        "fetch_p50_ms": (1000 * percentile(fetches, 0.50), "ms", len(fetches)),
        "peak_rss_mb": (
            statistics.median(p["peak_rss_mb"] for p in passes),
            "MB",
            len(passes),
        ),
    }
    return outcome


# -- serve-mix -----------------------------------------------------------------


class Server:
    """One ``repro lab serve`` subprocess on a fresh root and a free port."""

    def __init__(self, work: Path, name: str, trace_out: Path | None = None):
        root = work / f"{name}-root"
        self.log_path = work / f"{name}.log"
        serve_args = ["lab", "serve", "--port", "0", "--root", str(root), "--backend", "serial"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_host.py"), str(trace_out), *serve_args]
        self.spawned = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
            )
        self.port = None

    def wait_healthy(self, timeout: float = 60.0) -> tuple[float, float]:
        """Seconds from spawn to the first ``/v1/healthz`` 200, and the
        server's CPU seconds by then."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.process.poll() is None:
            if self.port is None:
                for line in self.log_path.read_text(errors="replace").splitlines():
                    if "listening on http://" in line:
                        address = line.split("listening on http://", 1)[1].split()[0]
                        self.port = int(address.rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                    connection.request("GET", "/v1/healthz")
                    status = connection.getresponse().status
                    connection.close()
                    if status == 200:
                        return time.monotonic() - self.spawned, self.cpu_seconds()
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError(f"server never became healthy (log: {self.log_path})")

    def cpu_seconds(self) -> float:
        """User + system CPU time the server has used so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's resident-memory high-water mark (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait()


def run_client(port: int, client: dict, deadline: float, stats: dict, completed) -> None:
    """One closed-loop client thread; a crash counts as a failure."""
    try:
        client_loop(port, client, deadline, stats, completed)
    except Exception as error:  # the thread boundary: record, don't vanish
        stats["failed"] += 1
        stats["failures"].append(f"client crashed: {type(error).__name__}: {error}")


def client_loop(port: int, client: dict, deadline: float, stats: dict, completed) -> None:
    """POST the client's scheduled grids, poll each to done, fetch results.

    ``completed()`` is called after every finished run.
    """
    held: dict[str, dict] = {}
    bodies: dict[int, bytes] = {}

    def call(method: str, url: str, body: bytes | None = None, headers=None):
        # One connection per request, as a shell client (curl) makes them.
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request(method, url, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read(), response.getheader("ETag")
        except (OSError, http.client.HTTPException) as error:
            return 0, str(error).encode(), None
        finally:
            connection.close()

    for grid_index in client["schedule"]:
        if time.monotonic() >= deadline:
            break
        if grid_index not in bodies:
            bodies[grid_index] = Path(client["grids"][grid_index]).read_bytes()
        points = client["points"][grid_index]
        stats["attempted"] += points
        started = time.perf_counter()
        status, raw, _etag = call("POST", "/v1/runs", bodies[grid_index])
        stats["post"].append(time.perf_counter() - started)
        if status != 202:
            stats["failed"] += points
            stats["failures"].append(f"POST grid {grid_index}: {status} {raw[:200]!r}")
            continue
        run = json.loads(raw)
        polls, slept = 0, 0.0
        while True:
            status, raw, _etag = call("GET", run["url"])
            polls += 1
            state = json.loads(raw).get("state") if status == 200 else None
            if state in ("done", "failed") or status != 200:
                break
            nap = time.perf_counter()
            time.sleep(POLL_SECONDS)
            slept += time.perf_counter() - nap
        stats["submit"].append((time.perf_counter() - started, slept))
        stats["polls"].append(polls)
        if state != "done":
            stats["failed"] += points
            stats["failures"].append(f"run {run['run_id']}: {status} state {state}")
            continue
        stats["runs"] += 1
        stats["points"] += points
        completed()
        bad = 0
        for job in run["jobs"]:
            address = job["config_hash"]
            conditional = address in held
            headers = {"If-None-Match": f'"{address}"'} if conditional else None
            fetch_start = time.perf_counter()
            status, raw, etag = call("GET", job["result_url"], headers=headers)
            stats["fetch"].append(time.perf_counter() - fetch_start)
            if status == 304 and conditional and etag == f'"{address}"':
                stats["not_modified"] += 1
                record = held[address]
            elif status == 200:
                record = json.loads(raw)
                held[address] = record
            else:
                bad += 1
                stats["failures"].append(f"GET {job['result_url']}: {status}")
                continue
            problems = verify.check_record(record, address)
            if problems:
                bad += 1
                stats["failures"].append(f"{job['job_id']}: {'; '.join(problems)}")
            elif grid_index < SERVE_DIGEST_GRIDS:
                stats["statistics"][verify.point_name(record)] = verify.rows_of(record)
        stats["failed"] += min(points, bad)


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    plan = inputs.write_inputs("serve-mix", seed, work / "inputs")
    trace_out = work / "serve-trace.json" if trace else None
    speed = hostspeed.HostSpeed(work)
    before = speed.sample()
    server = Server(work, "server", trace_out)
    try:
        setup = server.wait_healthy()
        load_before = speed.sample()
        setups = [hostspeed.scaled(*setup, before, load_before)]
        deadline = time.monotonic() + seconds
        stats = [
            {
                "attempted": 0, "failed": 0, "runs": 0, "points": 0, "not_modified": 0,
                "post": [], "submit": [], "fetch": [], "polls": [],
                "failures": [], "statistics": {},
            }
            for _ in plan["clients"]
        ]
        rss_lock = threading.Lock()
        rss = {"runs": 0, "peak_mb": None}

        def completed() -> None:
            with rss_lock:
                rss["runs"] += 1
                if rss["runs"] == SERVE_RSS_RUNS:
                    rss["peak_mb"] = server.peak_rss_mb()

        threads = [
            threading.Thread(
                target=run_client, args=(server.port, client, deadline, stat, completed)
            )
            for client, stat in zip(plan["clients"], stats)
        ]
        load_start = time.monotonic()
        cpu_start = time.process_time() + server.cpu_seconds()
        with hostspeed.CommitSampler(speed) as commits:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        load_s = time.monotonic() - load_start
        cpu_s = time.process_time() + server.cpu_seconds() - cpu_start
        peak_rss = rss["peak_mb"] or server.peak_rss_mb()
        load_after = speed.sample()
    finally:
        code = server.stop()
    for index in range(0 if trace else SETUP_SAMPLES - 1):
        before = speed.sample()
        extra = Server(work, f"setup-{index}")
        try:
            setup = extra.wait_healthy()
        finally:
            extra.stop()
        setups.append(hostspeed.scaled(*setup, before, speed.sample()))
    # Per-client counters add up and their sample lists concatenate.
    merged = {
        key: sum((s[key] for s in stats), [] if isinstance(stats[0][key], list) else 0)
        for key in stats[0]
        if key != "statistics"
    }
    failures = merged["failures"]
    if code != 0:
        failures.append(f"server exited {code} after SIGTERM")
    if not merged["attempted"]:
        failures.append("no grid was submitted")
    expected = SERVE_DIGEST_GRIDS * len(stats)
    collected = {name: rows for s in stats for name, rows in s["statistics"].items()}
    digest_grids = {name.split("[", 1)[0] for name in collected}
    outcome = {
        "attempted": max(1, merged["attempted"]),
        "failed": merged["failed"] + int(code != 0) + int(not merged["attempted"]),
        "failures": failures,
        "digests": [verify.digest(collected)] if len(digest_grids) == expected else [],
    }
    if trace:
        server_trace = json.loads(trace_out.read_text())
        runs = max(1, merged["runs"])
        metrics = layer_metrics([server_trace], runs)
        metrics["cli.import_s"] = (server_trace["import_s"], "s", 1)
        metrics["serve.post_ms"] = (1000 * statistics.median(merged["post"]), "ms", len(merged["post"]))
        metrics["serve.polls_per_run"] = (
            sum(merged["polls"]) / max(1, len(merged["polls"])), "count", len(merged["polls"])
        )
        metrics["serve.not_modified_ratio"] = (
            merged["not_modified"] / max(1, len(merged["fetch"])), "ratio", len(merged["fetch"])
        )
        outcome["metrics"] = metrics
        outcome["unit"] = "serve run"
        outcome["absent"] = server_trace["absent"]
        return outcome
    # A client loop's time is poll sleeps, which stay as they are, and
    # waiting on work: CPU (server and clients) or disk commits.  The work
    # is scaled by the two probes, weighted by the measured CPU share.
    slept = sum(nap for _latency, nap in merged["submit"])
    working_s = len(stats) * load_s - slept
    cpu_share = cpu_s / working_s
    factor = hostspeed.blended_factor(
        cpu_share, (load_before, load_after), [load_before[1], *commits.samples, load_after[1]]
    )
    window_s = (slept + working_s * factor) / len(stats)
    submits = [nap + (latency - nap) * factor for latency, nap in merged["submit"]]
    # A fetch reads one cached file and commits nothing: CPU-bound.
    cpu = hostspeed.cpu_factor(load_before, load_after)
    fetches = [latency * cpu for latency in merged["fetch"]]
    outcome["scaling"] = (
        f"host times scaled to the reference host (x{factor:.3f}; "
        f"CPU share {cpu_share:.2f})"
    )
    outcome["metrics"] = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "points_per_s": (merged["points"] / window_s, "1/s", merged["runs"]),
        "runs_per_s": (merged["runs"] / window_s, "1/s", merged["runs"]),
        "submit_p50_ms": (1000 * percentile(submits, 0.50), "ms", len(submits)),
        "submit_p99_ms": (1000 * percentile(submits, 0.99), "ms", len(submits)),
        "fetch_p50_ms": (1000 * percentile(fetches, 0.50), "ms", len(fetches)),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }
    return outcome


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(traces: list[dict], units: int) -> dict:
    """Per-layer metrics from one or more trace records, per unit of work."""
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for record in traces:
        for layer, seconds in record["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for layer, values in record["counts"].items():
            bucket = counts.setdefault(layer, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0.0) + value

    def count(layer: str, key: str) -> float:
        return counts.get(layer, {}).get(key, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    n = len(traces)
    accounted = sum(self_s.values()) + sum(r["other_s"] for r in traces)
    print(
        f"trace accounting: span self times + other_s = {accounted:.6f} s "
        f"of {sum(r['wall_s'] for r in traces):.6f} s traced wall"
    )
    metrics = {
        f"{layer}_s": (self_s.get(layer, 0.0) / units, "s", n)
        for layer in ("cli.command", "bench.client", *layers.TARGETS)
    }
    metrics["cli.import_s"] = (self_s.get("cli.import", 0.0) / n, "s", n)
    kernel_cycles = count("memory.kernel", "sim_cycles")
    program_cycles = count("processor.program", "sim_cycles")
    metrics.update(
        {
            "check.specs_linted": (count("check.lint", "specs_linted") / units, "count", n),
            "core.plan_calls": (count("core.plan", "plan_calls") / units, "count", n),
            "core.plan_cache_hit_ratio": (
                ratio(count("core.plan", "plan_cache_hits"), count("core.plan", "plan_cache_lookups")),
                "ratio",
                n,
            ),
            "memory.kernel_runs": (count("memory.kernel", "kernel_runs") / units, "count", n),
            "memory.sim_cycles": (kernel_cycles / units, "cycles", n),
            "memory.host_ns_per_sim_cycle": (
                ratio(1e9 * self_s.get("memory.kernel", 0.0), kernel_cycles), "ns", n
            ),
            "batch.analytic_points": (count("batch.evaluate", "analytic_points") / units, "count", n),
            "batch.soa_points": (count("batch.evaluate", "soa_points") / units, "count", n),
            "batch.fallback_points": (count("batch.evaluate", "fallback_points") / units, "count", n),
            "processor.programs": (count("processor.program", "programs") / units, "count", n),
            "processor.sim_cycles": (program_cycles / units, "cycles", n),
            "processor.host_ns_per_sim_cycle": (
                ratio(
                    1e9 * sum(r.get("inclusive_s", {}).get("processor.program", 0.0) for r in traces),
                    program_cycles,
                ),
                "ns",
                n,
            ),
            "lab.cache_hit_ratio": (
                ratio(count("lab.lookup", "hits"), count("lab.lookup", "lookups")), "ratio", n
            ),
            "serve.post_ms": (0.0, "ms", 0),
            "serve.polls_per_run": (0.0, "count", 0),
            "serve.not_modified_ratio": (0.0, "ratio", 0),
            "other_s": (sum(r["other_s"] for r in traces) / units, "s", n),
            "trace.wall_s": (sum(r["wall_s"] for r in traces) / units, "s", n),
            "trace.overhead_s": (
                layers.wrapper_overhead() * sum(r["calls"] for r in traces) / units, "s", n
            ),
            "trace.absent_targets": (
                float(len({t for r in traces for t in r["absent"]})), "count", n
            ),
        }
    )
    return metrics


# -- reporting -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and check its outcome; prints a summary table."""
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "serve-mix":
            outcome = run_serve(seed, seconds, trace, work)
        else:
            outcome = run_lab(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    correct = outcome["failed"] == 0 and bool(outcome["metrics"])
    digests = outcome["digests"]
    if len(digests) > 1:
        correct = False
        print(f"digest: passes disagree: {', '.join(d[:16] for d in digests)}")
    elif digests:
        stored = json.loads((HERE / "digests.json").read_text())
        expected = stored["digests"].get(workload) if seed == stored["seed"] else None
        verdict = "not stored for this seed"
        if expected is not None:
            verdict = "matches digests.json" if digests[0] == expected else "MISMATCH"
            correct = correct and digests[0] == expected
        print(f"digest: {digests[0]} ({verdict})")
    else:
        print("digest: not collected")
    kind = f"per {outcome['unit']}" if trace else f"end to end; {outcome['scaling']}"
    print(f"{workload} (seed {seed}, {seconds:g}s, {kind}):")
    for name, (value, unit, samples) in sorted(outcome["metrics"].items()):
        print(f"  {name:<32} {value:>14.6g} {unit:<6} n={samples}")
    error_frac = outcome["failed"] / outcome["attempted"]
    print(f"  {'error_frac':<32} {error_frac:>14.6g} {'ratio':<6} n={outcome['attempted']}")
    for line in outcome["failures"][:10]:
        print(f"  failure: {line}")
    if trace and outcome.get("absent"):
        for target, reason in sorted(outcome["absent"].items()):
            print(f"  absent layer target: {target} ({reason})")
    return {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in outcome["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end and per-layer benchmark of repro"
    )
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {SRC}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    print(environment_line())
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [
        measure(workload, args.seed, args.seconds, bool(args.trace))
        for workload in workloads
    ]
    if args.workload == "all":
        return 0 if all(result["correct"] for result in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
