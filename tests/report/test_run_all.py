"""Tests for the EXPERIMENTS.md generator script."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

#: SHA-256 of the EXPERIMENTS.md every runner regenerates.  The tables
#: are deterministic (seeded Monte Carlo, integer cycle counts), so any
#: change to a runner, the closed form, the planner or the kernel that
#: moves one published number changes this digest.
EXPERIMENTS_SHA256 = (
    "af5ff393249c3b64f6b9abbd35ddb26896022512279cba3d90df3e70957c26bc"
)


def load_run_all():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestRunAll:
    def test_writes_full_report(self, tmp_path, capsys):
        run_all = load_run_all()
        target = tmp_path / "EXPERIMENTS.md"
        lab_root = str(tmp_path / "lab")
        exit_code = run_all.main(str(target), lab_root=lab_root)
        assert exit_code == 0
        text = target.read_text()
        assert (
            hashlib.sha256(target.read_bytes()).hexdigest()
            == EXPERIMENTS_SHA256
        )
        # One section per experiment, every check passing.
        for experiment_id in ("E01", "E07", "E09", "E15"):
            assert f"## {experiment_id}" in text
        assert "**FAIL**" not in text
        assert "| check | paper / expected | measured | status |" in text
        progress = capsys.readouterr().out
        assert progress.count("PASS") >= 15

        # A second generation is served from the artifact cache and is
        # byte-identical to the freshly computed report.
        warm_target = tmp_path / "EXPERIMENTS2.md"
        assert run_all.main(str(warm_target), lab_root=lab_root) == 0
        warm_progress = capsys.readouterr().out
        assert warm_progress.count("[cached]") >= 15
        assert warm_target.read_bytes() == target.read_bytes()
