"""CLI tests for `repro check`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import PROGRAM, example_params


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.json"
    path.write_text(
        json.dumps(
            {
                "name": "clean",
                "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                "memory": {"t": 3},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 16, "stride": 12, "length": 128},
                },
            }
        )
    )
    return path


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "name": "broken",
                "mapping": {"kind": "warp", "params": {}},
                "memory": {"t": 3},
                "workload": {
                    "kind": "strided",
                    "params": {"stride": 1, "length": 8},
                },
            }
        )
    )
    return path


class TestCheckCommand:
    def test_clean_file_exits_zero_with_findings_and_summary(
        self, clean_file, capsys
    ):
        assert main(["check", str(clean_file)]) == 0
        output = capsys.readouterr().out
        assert "CF101 · info ·" in output
        assert "0 error(s)" in output

    def test_error_file_exits_one(self, broken_file, capsys):
        assert main(["check", str(broken_file)]) == 1
        output = capsys.readouterr().out
        assert "SL301 · error ·" in output

    def test_bad_stride_example_exits_one(self, capsys):
        code = main(["check", "examples/scenario_bad_stride.json"])
        assert code == 1
        assert "CF104 · error ·" in capsys.readouterr().out

    def test_mixed_files_exit_with_the_worst(
        self, clean_file, broken_file, capsys
    ):
        assert main(["check", str(clean_file), str(broken_file)]) == 1

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/spec.json"]) == 2
        assert "no such" in capsys.readouterr().err

    def test_json_output_shape(self, clean_file, broken_file, capsys):
        code = main(["check", str(clean_file), str(broken_file), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [entry["file"] for entry in payload] == [
            str(clean_file),
            str(broken_file),
        ]
        assert payload[0]["exit_code"] == 0
        assert payload[1]["exit_code"] == 1
        finding = payload[1]["findings"][0]
        assert set(finding) == {"rule_id", "severity", "location", "message"}

    def test_an_unbuildable_machine_is_a_finding_beside_its_siblings(
        self, clean_file, tmp_path, capsys
    ):
        """The machine refuses a register of length -1 before the
        conflict pass reads it, so both files still report."""
        path = tmp_path / "negative-register.json"
        path.write_text(
            json.dumps(
                {
                    "name": "negative-register",
                    "mapping": {
                        "kind": "matched-xor",
                        "params": {"t": 3, "s": 4},
                    },
                    "memory": {"t": 3},
                    "program": {
                        "kind": "asm",
                        "params": example_params(PROGRAM, "asm"),
                    },
                    "drive": {
                        "kind": "decoupled",
                        "params": {"register_length": -1},
                    },
                }
            )
        )
        code = main(["check", str(path), str(clean_file), "--json"])
        assert code == 1
        bad, clean = json.loads(capsys.readouterr().out)
        assert [bad["file"], clean["file"]] == [str(path), str(clean_file)]
        [finding] = bad["findings"]
        assert finding["rule_id"] == "SL303"
        assert finding["message"] == "register_length must be >= 1, got -1"
        assert clean["exit_code"] == 0

    def test_unparsable_json_is_a_finding_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == 1
        assert "SL304" in capsys.readouterr().out
