"""Host-speed probes: scale host times to a reference host.

The benchmark shares its host with other tenants.  The CPU speed and the
disk's commit latency each drift by 2x or more over minutes, and they
drift independently.  So a measured interval is split into CPU time
(user + system time of the process doing the work) and *blocked* time
(the rest of the wall time, mostly waits on disk flushes).  CPU time is
scaled by a CPU probe and blocked time by a commit probe.  Both probes
are sampled right before and right after the interval.

The nominal probe times define the reference host.  The benchmark code
is the same on both sides of any comparison, so two commits are scaled
the same way.
"""

from __future__ import annotations

import json
import sqlite3
import statistics
import threading
import time
from contextlib import closing
from pathlib import Path

#: Probe times on the reference host: a quiet 2-CPU VM with virtio disk.
CPU_NOMINAL_S = 0.003
COMMIT_NOMINAL_S = 0.001
REPEATS = 3


def cpu_probe() -> float:
    """Host seconds of a fixed slice of interpreter work.

    It uses dicts, strings, sorting and JSON, the same kind of work the
    program's layers do, so contention slows both alike.
    """
    start = time.perf_counter()
    for _ in range(20):
        table = {index: str(index) for index in range(200)}
        sorted(table.values(), key=len)
        json.loads(json.dumps(table))
        [pair for pair in table.items() if pair[0] % 3]
    return time.perf_counter() - start


def commit_probe(database: Path) -> float:
    """Host seconds of one SQLite connect + insert + commit + close.

    This is the pattern the lab store follows for every artifact it
    indexes.
    """
    start = time.perf_counter()
    with closing(sqlite3.connect(database)) as connection, connection:
        connection.execute("CREATE TABLE IF NOT EXISTS probe (at REAL)")
        connection.execute("INSERT INTO probe VALUES (?)", (start,))
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken around measured intervals."""

    def __init__(self, directory: Path):
        self.database = directory / "hostspeed-probe.sqlite"

    def sample(self) -> tuple[float, float]:
        """``(cpu probe, commit probe)``, each the median of a few runs."""
        cpu = statistics.median(cpu_probe() for _ in range(REPEATS))
        commit = statistics.median(commit_probe(self.database) for _ in range(REPEATS))
        return cpu, commit


def cpu_factor(*samples: tuple[float, float]) -> float:
    """Multiplier from host CPU seconds to reference seconds."""
    return CPU_NOMINAL_S / statistics.mean(sample[0] for sample in samples)


def scaled(wall_s: float, cpu_s: float, *samples: tuple[float, float]) -> float:
    """An interval in reference seconds.

    CPU time is scaled by the CPU probe and blocked time by the commit
    probe.
    """
    commit = COMMIT_NOMINAL_S / statistics.mean(sample[1] for sample in samples)
    cpu_s = min(cpu_s, wall_s)
    return cpu_s * cpu_factor(*samples) + (wall_s - cpu_s) * commit


class CommitSampler:
    """Commit probes every ``interval`` seconds on a background thread.

    A commit probe barely uses the CPU, so it can run beside a load
    without disturbing it.  Use it as a context manager around the load.
    """

    def __init__(self, speed: HostSpeed, interval: float = 0.25):
        self.speed = speed
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="commit-sampler")

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(commit_probe(self.speed.database))

    def __enter__(self) -> "CommitSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def blended_factor(cpu_share: float, cpu_samples, commits: list[float]) -> float:
    """Multiplier for an interval whose ``cpu_share`` was CPU time.

    The CPU share is scaled by the CPU probe. The rest is scaled by the
    median commit probe.
    """
    cpu_share = min(1.0, max(0.0, cpu_share))
    commit = COMMIT_NOMINAL_S / statistics.median(commits)
    return cpu_share * cpu_factor(*cpu_samples) + (1.0 - cpu_share) * commit
