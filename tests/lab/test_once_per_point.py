"""A design point's lab bookkeeping happens once per batch.

Each job's config is hashed once (serve's submit, the lookup, the save
and a crashed job's record share that hash), a fresh point is encoded
as canonical JSON three times (its job text, its config hash and its
stored body; DD401 encodes only possible duplicates), a batch looks its
points up with one query, each executed point is one ``INSERT``, and a
``repro lab sweep`` call builds an ``ArgumentParser`` only for each
command on its path.  Reading a root back is batched the same way:
``lab history`` reads N distinct results with one query per
``_LOOKUP_CHUNK`` hashes, and ``lab diff`` looks each run up once.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys

import pytest

import repro.canonical
from repro.check.dedupe import dedupe_findings
from repro.cli import main
from repro.lab import SCENARIO_KIND, ArtifactStore, JobSpec, hashing, run_jobs
from repro.lab.store import _LOOKUP_CHUNK
from repro.scenarios import load_grid
from repro.obs.history import read_history
from repro.result_schema import METRIC_HEADERS
from repro.serve.service import LabService

#: Four planner points, milliseconds each to simulate.
GRID = {
    "base": {
        "name": "once",
        "mapping": {"kind": "matched-xor", "params": {"t": 2, "s": 3}},
        "memory": {"t": 2},
        "workload": {
            "kind": "strided",
            "params": {"base": 0, "stride": 1, "length": 32},
        },
    },
    "axes": {"workload.params.stride": [1, 3, 5, 7]},
}


def write_grid(tmp_path, strides) -> str:
    grid = json.loads(json.dumps(GRID))
    grid["axes"]["workload.params.stride"] = strides
    path = tmp_path / f"grid-{'-'.join(map(str, strides))}.json"
    path.write_text(json.dumps(grid))
    return str(path)


def sweep(grid: str, root) -> int:
    return main(
        ["lab", "sweep", grid, "--backend", "serial", "--root", str(root)]
    )


def record_calls(monkeypatch, name: str, original, record) -> None:
    """Make every ``repro`` module that binds ``original`` as ``name``
    call ``record(argument)`` before it."""

    def counting(argument):
        record(argument)
        return original(argument)

    for module_name, module in list(sys.modules.items()):
        bound = vars(module).get(name)
        if module_name.startswith("repro") and bound is original:
            monkeypatch.setattr(module, name, counting)


@pytest.fixture
def hash_calls(monkeypatch):
    """The job ids ``repro.lab.hashing.config_hash`` hashes from now on,
    under every name a ``repro`` module binds it to."""
    calls: list[str] = []
    record_calls(
        monkeypatch,
        "config_hash",
        hashing.config_hash,
        lambda config: calls.append(config["job_id"]),
    )
    return calls


@pytest.fixture
def encodes(monkeypatch):
    """The values ``repro.canonical.canonical_json`` encodes from now on,
    under every name a ``repro`` module binds it to."""
    calls: list[object] = []
    record_calls(
        monkeypatch, "canonical_json", repro.canonical.canonical_json, calls.append
    )
    return calls


@pytest.fixture
def statements(monkeypatch):
    """The SQL statements ``repro.lab.store``'s connections run from now on."""
    executed: list[str] = []

    class TracingSqlite:
        """``sqlite3`` as ``repro.lab.store`` sees it, tracing statements."""

        def __getattr__(self, name):
            return getattr(sqlite3, name)

        def connect(self, *args, **kwargs):
            connection = sqlite3.connect(*args, **kwargs)
            connection.set_trace_callback(executed.append)
            return connection

    monkeypatch.setattr("repro.lab.store.sqlite3", TracingSqlite())
    return executed


def count(statements: list[str], verb: str) -> int:
    return sum(1 for text in statements if text.lstrip().startswith(verb))


class TestOneHashPerJob:
    def test_a_fresh_sweep_hashes_each_job_once(
        self, tmp_path, capsys, hash_calls
    ):
        assert sweep(write_grid(tmp_path, [1, 3, 5, 7]), tmp_path / "lab") == 0
        assert len(hash_calls) == 4
        assert len(set(hash_calls)) == 4

    def test_serve_submit_and_its_run_share_one_hash(
        self, tmp_path, hash_calls
    ):
        store = ArtifactStore(tmp_path / "lab")
        service = LabService(store, backend_factory=lambda: "serial")
        try:
            payload = service.submit(json.dumps(GRID).encode())
            for submission in list(service._runs.values()):
                assert submission.finished.wait(timeout=60)
            final = service.run_status(payload["run_id"])
        finally:
            service.close()
            store.close()
        assert final["state"] == "done"
        assert len(hash_calls) == 4
        assert len(set(hash_calls)) == 4

    def test_a_crashed_job_reuses_its_lookup_hash(self, tmp_path, hash_calls):
        spec = JobSpec("SC-no-spec", SCENARIO_KIND, "a job without its spec")
        with ArtifactStore(tmp_path / "lab") as store:
            report = run_jobs([spec], store=store, backend="serial")
        (outcome,) = report.outcomes
        assert not outcome.all_passed
        assert outcome.record["config_hash"] == spec.config_hash()
        assert hash_calls == ["SC-no-spec"]

    def test_the_hash_is_outside_equality_repr_and_the_wire_format(self):
        from repro.lab import job_from_json, job_to_json

        spec = JobSpec("SC-x", SCENARIO_KIND, "x", (("spec", "{}"),))
        fresh = JobSpec("SC-x", SCENARIO_KIND, "x", (("spec", "{}"),))
        before = (job_to_json(spec), repr(spec))
        address = spec.config_hash("1.0")
        assert spec.config_hash("1.0") == address
        assert spec.config_hash("2.0") != address
        assert (job_to_json(spec), repr(spec)) == before
        assert spec == fresh and hash(spec) == hash(fresh)
        assert job_from_json(job_to_json(spec)).config_hash("1.0") == address


class TestEncodesPerPoint:
    def test_a_fresh_sweep_encodes_each_point_three_times(
        self, tmp_path, capsys, encodes
    ):
        """The spec's job text, the config hash and the stored body."""
        strides = [1, 3, 5, 7, 9, 11]
        assert sweep(write_grid(tmp_path, strides), tmp_path / "lab") == 0
        assert len(encodes) == 3 * len(strides)

    def test_dedupe_encodes_no_distinct_point(self, encodes):
        grid = json.loads(json.dumps(GRID))
        grid["axes"] = {
            "workload.params.stride": list(range(1, 25)),
            "memory.q": [1, 2],
        }
        specs = load_grid(json.dumps(grid)).expand()
        assert len(specs) == 48
        encodes.clear()
        assert dedupe_findings([(spec, "f") for spec in specs]) == []
        assert encodes == []


class TestOneLookupPerRun:
    def test_inserts_per_executed_point_and_one_lookup_per_run(
        self, tmp_path, capsys, statements, tamper
    ):
        root = tmp_path / "lab"
        # A run on another point first, so the lookup has an index to read.
        assert sweep(write_grid(tmp_path, [9]), root) == 0
        with ArtifactStore(root) as store:
            primer = {row["config_hash"] for row in store.results()}
        grid = write_grid(tmp_path, [1, 3, 5, 7])

        statements.clear()
        assert sweep(grid, root) == 0
        assert count(statements, "INSERT") == 4
        assert count(statements, "SELECT") == 1

        statements.clear()
        assert sweep(grid, root) == 0
        assert "4 design points, 4 cache hits" in capsys.readouterr().out
        assert count(statements, "INSERT") == 0
        assert count(statements, "SELECT") == 1

        # A body that is not a record under its hash is a miss, and the
        # point's save overwrites it.
        with ArtifactStore(root) as store:
            victim = min(
                {row["config_hash"] for row in store.results()} - primer
            )
            tamper(store, victim, '{"truncated": ')
        statements.clear()
        assert sweep(grid, root) == 0
        assert count(statements, "INSERT") == 1
        assert count(statements, "SELECT") == 1
        with ArtifactStore(root) as store:
            assert store.load(victim)["config_hash"] == victim

    def test_a_long_batch_takes_one_query_per_chunk(
        self, tmp_path, statements
    ):
        spec = JobSpec("SC-one", SCENARIO_KIND, "one", (("spec", "{}"),))
        with ArtifactStore(tmp_path / "lab") as store:
            record = store.save(spec, {"all_passed": True}, run_id="r")
            wanted = [f"{index:064x}" for index in range(2 * _LOOKUP_CHUNK)]
            wanted.insert(_LOOKUP_CHUNK, record["config_hash"])
            statements.clear()
            found = store.load_many(wanted)
        assert found == {record["config_hash"]: record}
        assert count(statements, "SELECT") == 3

    def test_a_root_without_an_index_answers_without_creating_one(
        self, tmp_path, statements
    ):
        store = ArtifactStore(tmp_path / "lab")
        assert store.load_many(["0" * 64]) == {}
        assert statements == []
        assert not (tmp_path / "lab").exists()


class TestOneLookupPerRead:
    @pytest.mark.parametrize("points", [3, _LOOKUP_CHUNK + 1])
    def test_history_reads_n_results_with_one_query_per_chunk(
        self, tmp_path, statements, points
    ):
        root = tmp_path / "lab"
        payload = {
            "headers": list(METRIC_HEADERS),
            "rows": [["latency", 9]],
            "all_passed": True,
        }
        with ArtifactStore(root) as store:
            jobs = [
                {
                    "job_id": f"SC-{index}",
                    "config_hash": store.save(
                        JobSpec(f"SC-{index}", SCENARIO_KIND, "point"),
                        payload,
                        run_id="r1",
                    )["config_hash"],
                }
                for index in range(points)
            ]
        # Two runs over the same points: each result is read once.
        for run_id in ("r1", "r2"):
            manifest = {"run_id": run_id, "created_at": run_id, "jobs": jobs}
            path = root / "runs" / run_id / "manifest.json"
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(manifest))
        statements.clear()
        with ArtifactStore(root) as store:
            history = read_history(store)
        assert count(statements, "SELECT") == -(-points // _LOOKUP_CHUNK)
        assert len(history.trend("latency")) == 2 * points

    def test_lab_diff_looks_each_run_up_once(
        self, tmp_path, capsys, statements
    ):
        root = tmp_path / "lab"
        grid = write_grid(tmp_path, [1, 3, 5, 7])
        assert sweep(grid, root) == 0
        assert sweep(grid, root) == 0
        runs = sorted(path.name for path in (root / "runs").iterdir())
        statements.clear()
        assert main(["lab", "diff", *runs, "--root", str(root)]) == 0
        assert "compared 4 common job(s); 4 identical" in capsys.readouterr().out
        assert count(statements, "SELECT") == 2


class TestParsersOnThePath:
    def test_a_sweep_builds_at_most_three_parsers(
        self, tmp_path, capsys, monkeypatch
    ):
        built: list[str | None] = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert sweep(write_grid(tmp_path, [1]), tmp_path / "lab") == 0
        assert len(built) <= 3, built
