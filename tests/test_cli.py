"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestPlan:
    def test_conflict_free_plan(self, capsys):
        exit_code = main(
            ["plan", "--stride", "12", "--base", "16", "--length", "128"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "conflict_free" in output
        assert "137 cycles" in output

    def test_unmatched_plan(self, capsys):
        exit_code = main(["plan", "--stride", "96", "--y", "9"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "M=64" in output

    def test_timeline_flag(self, capsys):
        exit_code = main(["plan", "--stride", "3", "--timeline"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mod   0" in output

    def test_invalid_vector_is_clean_error(self, capsys):
        exit_code = main(["plan", "--stride", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_ordered_mode(self, capsys):
        exit_code = main(["plan", "--stride", "12", "--mode", "ordered"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "canonical" in output


class TestWindow:
    def test_matched(self, capsys):
        exit_code = main(["window", "--lam", "7", "--t", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "[0..4]" in output
        assert "31/32" in output

    def test_unmatched(self, capsys):
        exit_code = main(["window", "--lam", "7", "--t", "3", "--unmatched"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "[0..9]" in output
        assert "1023/1024" in output


class TestSurvey:
    def test_table_shape(self, capsys):
        exit_code = main(["survey", "--max-stride", "10"])
        output = capsys.readouterr().out
        assert exit_code == 0
        # Header + separator + 10 stride rows.
        lines = [l for l in output.splitlines() if l.strip()]
        assert len(lines) >= 12
        assert "conflict-free" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_plan_requires_stride(self):
        with pytest.raises(SystemExit):
            main(["plan"])


class TestRun:
    def _write_program(self, tmp_path, text):
        path = tmp_path / "prog.vasm"
        path.write_text(text)
        return str(path)

    def test_run_program_with_directives(self, tmp_path, capsys):
        path = self._write_program(
            tmp_path,
            "\n".join(
                [
                    ".fill base=0, stride=3, count=128, value=2.0",
                    "vload  v1, base=0, stride=3",
                    "vscale v2, v1, scalar=10.0",
                    "vstore v2, base=20000, stride=1",
                ]
            ),
        )
        exit_code = main(["run", path, "--dump", "20000:1:3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "conflict_free" in output
        assert "[20.0, 20.0, 20.0]" in output

    def test_init_directive(self, tmp_path, capsys):
        path = self._write_program(
            tmp_path,
            "\n".join(
                [
                    ".init base=0, stride=1, values=1.0;2.0;3.0;4.0",
                    "vload v1, base=0, stride=1, length=4",
                    "vsum v2, v1, length=4",
                    "vstore v2, base=100, stride=1, length=1",
                ]
            ),
        )
        exit_code = main(["run", path, "--dump", "100:1:1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "[10.0]" in output

    def test_chaining_flag(self, tmp_path, capsys):
        path = self._write_program(
            tmp_path,
            "\n".join(
                [
                    ".fill base=0, stride=3, count=128, value=1.0",
                    "vload  v1, base=0, stride=3",
                    "vscale v2, v1, scalar=2.0",
                ]
            ),
        )
        exit_code = main(["run", path, "--chaining"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "chained" in output

    def test_bad_directive_is_clean_error(self, tmp_path, capsys):
        path = self._write_program(tmp_path, ".bogus base=0")
        exit_code = main(["run", path])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_uninitialised_read_is_clean_error(self, tmp_path, capsys):
        path = self._write_program(tmp_path, "vload v1, base=0, stride=1")
        exit_code = main(["run", path])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.vasm")
        exit_code = main(["run", missing])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert f"no such program file: {missing}" in captured.err

    @pytest.mark.parametrize("dump", ["1:2", "a:b:c", "1:2:3:4"])
    def test_malformed_dump_is_usage_error(self, tmp_path, capsys, dump):
        path = self._write_program(
            tmp_path,
            "\n".join(
                [
                    ".fill base=0, stride=1, count=4, value=1.0",
                    "vload v1, base=0, stride=1, length=4",
                ]
            ),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["run", path, "--dump", dump])
        assert excinfo.value.code == 2
        assert "BASE:STRIDE:COUNT" in capsys.readouterr().err
