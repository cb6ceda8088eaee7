"""Graceful shutdown: SIGTERM drains in-flight batches, then exit 0.

Runs the real ``repro lab serve`` CLI in a subprocess — signal
disposition, the drain sequence, and the exit status are process-level
behaviour that in-process tests cannot see.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.lab import ArtifactStore

from .conftest import SPEC

SRC = str(Path(__file__).resolve().parents[2] / "src")


def start_serve(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "lab",
            "serve",
            "--port",
            "0",
            "--backend",
            "serial",
            "--root",
            str(tmp_path / "lab"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def read_port(process) -> int:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if match:
            return int(match.group(1))
    pytest.fail("serve process never announced its port")


def post_spec(port) -> dict:
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/v1/runs", body=json.dumps(SPEC))
        response = conn.getresponse()
        assert response.status == 202
        return json.loads(response.read())
    finally:
        conn.close()


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        process = start_serve(tmp_path)
        try:
            port = read_port(process)
            accepted = post_spec(port)
            config_hash = accepted["jobs"][0]["config_hash"]
            # Signal immediately: the batch is (at best) just starting.
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        assert process.returncode == 0, output
        assert "draining in-flight runs" in output
        assert "drained cleanly" in output

        # The 202 was a promise: the result landed despite the signal,
        # in the index and nowhere else.
        with ArtifactStore(tmp_path / "lab") as store:
            record = store.load(config_hash)
        assert record is not None, output
        assert record["all_passed"] is True
        assert not list((tmp_path / "lab").rglob("result.json"))

    def test_sigint_also_exits_zero(self, tmp_path):
        process = start_serve(tmp_path)
        try:
            port = read_port(process)
            # Liveness only; no work in flight.
            conn = HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/v1/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
