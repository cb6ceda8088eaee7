"""The three front doors store the same result for one spec.

`repro lab sweep`, `repro scenario run --lab` and `POST /v1/runs` all
make their jobs through `scenario_jobs`, so one grid sent through each
door (each into its own lab root) must land under the same config
hashes with the same bodies, apart from what differs per run.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lab.store import ArtifactStore

GRID = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "scenario_unmatched_grid.json"
)
PER_RUN = ("run_id", "created_at", "elapsed_seconds")


def stored_bodies(root: Path) -> dict[str, dict]:
    """Every stored body under ``root`` by config hash, per-run fields dropped."""
    with ArtifactStore(root) as store:
        bodies = {}
        for row in store.results():
            body = json.loads(store.artifact_bytes(row["config_hash"]))
            bodies[row["config_hash"]] = {
                key: value for key, value in body.items() if key not in PER_RUN
            }
    return bodies


def test_cli_lab_and_serve_store_identical_results(tmp_path, store, client):
    sweep_root, run_root = tmp_path / "sweep", tmp_path / "scenario-run"
    assert main(
        ["lab", "sweep", str(GRID), "--backend", "serial", "--root", str(sweep_root)]
    ) == 0
    assert main(
        ["scenario", "run", str(GRID), "--lab", "--jobs", "1", "--root", str(run_root)]
    ) == 0
    status, _, body = client.post_json("/v1/runs", json.loads(GRID.read_text()))
    assert status == 202
    assert client.wait_done(body["run_id"])["state"] == "done"

    sweep = stored_bodies(sweep_root)
    assert len(sweep) == 8
    assert stored_bodies(run_root) == sweep
    assert stored_bodies(store.root) == sweep
