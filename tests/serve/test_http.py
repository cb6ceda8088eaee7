"""HTTP surface tests: routing, submission lifecycle, error grammar."""

from __future__ import annotations

import json
import re
import time
from http.client import HTTPConnection

from repro.lab.manifest import read_manifests
from repro.serve.schemas import MAX_BODY_BYTES

from .conftest import SPEC

#: Every error body is ``TypeName: message`` — the lab's job-failure
#: grammar, reused verbatim on the wire.
ERROR_SHAPE = re.compile(r"^[A-Za-z]+Error: .+")


class TestHealthz:
    def test_ok(self, client):
        status, body = client.get_json("/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        import repro

        assert body["version"] == repro.__version__
        assert body["uptime_seconds"] >= 0

    def test_responses_are_json_with_content_length(self, client):
        status, headers, body = client.get("/v1/healthz")
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)

    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, app):
        """Headers and body are two writes; with Nagle's algorithm on,
        each response on a reused connection waits ~40 ms for the
        client's delayed ACK, so 20 requests would take ~0.8 s."""
        connection = HTTPConnection(app.host, app.port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.3, f"20 keep-alive GETs took {elapsed:.3f}s"


class TestRouting:
    def test_unknown_route_is_404_with_canonical_error(self, client):
        status, body = client.get_json("/v1/nope")
        assert status == 404
        assert ERROR_SHAPE.match(body["error"])
        assert body["error"].startswith("NotFoundError: ")
        assert body["status"] == 404

    def test_wrong_method_is_405(self, client):
        status, _, body = client.post_json("/v1/healthz", {})
        assert status == 405
        assert body["error"].startswith("MethodNotAllowedError: ")

    def test_get_on_runs_collection_is_405(self, client):
        status, body = client.get_json("/v1/runs")
        assert status == 405


class TestSubmission:
    def test_submit_then_poll_to_done(self, client):
        status, headers, body = client.post_json("/v1/runs", SPEC)
        assert status == 202
        assert body["state"] == "queued" or body["state"] in ("running", "done")
        assert body["job_count"] == 1
        assert headers["Location"] == f"/v1/runs/{body['run_id']}"
        [job] = body["jobs"]
        # The artifact address is known at submit time.
        assert re.fullmatch(r"[0-9a-f]{64}", job["config_hash"])
        assert job["result_url"] == f"/v1/results/{job['config_hash']}"

        done = client.wait_done(body["run_id"])
        assert done["state"] == "done"
        assert done["all_passed"] is True
        assert done["executed"] == 1
        assert done["cache_hits"] == 0
        assert done["metrics"]["backend"] == "serial"
        assert done["metrics"]["cache_hit_rate"] == 0.0
        assert done["jobs"][0]["cached"] is False

    def test_created_at_is_stamped_like_the_manifest(self, client, store):
        """A submitted run's ``created_at`` is the lab's one timestamp
        format: UTC with fixed-width microseconds, as its manifest."""
        stamp = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}Z")
        status, _, body = client.post_json("/v1/runs", SPEC)
        assert status == 202
        client.wait_done(body["run_id"])
        [manifest] = read_manifests(store)
        assert manifest["run_id"] == body["run_id"]
        assert stamp.fullmatch(manifest["created_at"])
        assert stamp.fullmatch(body["created_at"])
        assert body["created_at"] <= manifest["created_at"]

    def test_grid_expands_to_many_jobs(self, client):
        grid = {
            "base": SPEC,
            "axes": {"workload.params.stride": [1, 12]},
        }
        status, _, body = client.post_json("/v1/runs", grid)
        assert status == 202
        assert body["job_count"] == 2
        done = client.wait_done(body["run_id"])
        assert done["all_passed"] is True

    def test_unknown_run_is_404(self, client):
        status, body = client.get_json("/v1/runs/never-heard-of-it")
        assert status == 404
        assert body["error"].startswith("NotFoundError: ")


class TestBadRequests:
    def test_malformed_json_is_400_configuration_error(self, client):
        status, _, body = client.request("POST", "/v1/runs", body="not json")
        body = json.loads(body)
        assert status == 400
        assert body["error"].startswith("ConfigurationError: invalid scenario JSON")
        assert body["status"] == 400

    def test_empty_body_is_400(self, client):
        status, _, body = client.request("POST", "/v1/runs")
        body = json.loads(body)
        assert status == 400
        assert body["error"].startswith("BadRequestError: ")

    def test_invalid_spec_content_is_400(self, client):
        bad = dict(SPEC, mapping={"kind": "no-such-mapping", "params": {}})
        status, _, body = client.post_json("/v1/runs", bad)
        assert status == 400
        assert ERROR_SHAPE.match(body["error"])

    def test_oversize_body_is_413_without_reading_it(self, client):
        status, _, body = client.request(
            "POST",
            "/v1/runs",
            body="x",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        body = json.loads(body)
        assert status == 413
        assert body["error"].startswith("PayloadTooLargeError: ")


class TestHistory:
    def test_trend_updates_as_runs_complete(self, client):
        _, _, body = client.post_json("/v1/runs", SPEC)
        client.wait_done(body["run_id"])
        status, trend = client.get_json("/v1/history/elapsed_seconds")
        assert status == 200
        assert trend["metric"] == "elapsed_seconds"
        assert trend["point_count"] >= 1
        assert trend["points"][0]["run_id"] == body["run_id"]

    def test_scenario_filter_and_limit(self, client):
        _, _, body = client.post_json("/v1/runs", SPEC)
        client.wait_done(body["run_id"])
        status, trend = client.get_json(
            "/v1/history/latency?scenario=serve-test&limit=1"
        )
        assert status == 200
        assert trend["point_count"] == 1
        status, trend = client.get_json("/v1/history/latency?scenario=no-match")
        assert trend["point_count"] == 0

    def test_bad_limit_is_400(self, client):
        status, body = client.get_json("/v1/history/latency?limit=zero")
        assert status == 400
        assert body["error"].startswith("BadRequestError: ")


class TestMetrics:
    def test_counters_track_requests_and_jobs(self, client):
        _, _, body = client.post_json("/v1/runs", SPEC)
        client.wait_done(body["run_id"])
        status, metrics = client.get_json("/v1/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["runs_submitted"] == 1
        assert counters["runs_completed"] == 1
        assert counters["jobs_executed"] == 1
        assert counters["requests_total"] >= 2
        assert metrics["runs_tracked"] == 1

    def test_errors_are_counted(self, client):
        client.get_json("/v1/nope")
        _, metrics = client.get_json("/v1/metrics")
        assert metrics["counters"]["errors_total"] >= 1
