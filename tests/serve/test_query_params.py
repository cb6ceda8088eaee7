"""``POST /v1/runs`` takes its whole input from the body.

A query parameter — say a ``?batch_workers=4`` left over from a client
written against an older server — must not be dropped without a word:
the request is a 400 in the canonical ``TypeName: message`` form that
names the parameter, counts in ``runs_rejected`` and allocates no run.
"""

from __future__ import annotations

import pytest

from tests.serve.conftest import SPEC


class TestQueryParametersRejected:
    @pytest.mark.parametrize(
        "query, named",
        [
            ("batch_workers=4", "batch_workers"),
            ("engine=batch&validate=2", "engine, validate"),
            ("engine", "engine"),
        ],
    )
    def test_query_is_a_400_naming_the_parameter(self, client, query, named):
        status, _, body = client.post_json(f"/v1/runs?{query}", SPEC)
        assert status == 400
        assert body["error"].startswith("BadRequestError: ")
        assert f"(got {named})" in body["error"]
        assert "run_id" not in body

    def test_rejection_counts_and_tracks_no_run(self, client):
        _, before = client.get_json("/v1/metrics")
        status, _, _body = client.post_json("/v1/runs?batch_workers=4", SPEC)
        assert status == 400
        _, after = client.get_json("/v1/metrics")
        counters_before, counters_after = before["counters"], after["counters"]
        assert counters_after["runs_rejected"] == (
            counters_before.get("runs_rejected", 0) + 1
        )
        assert counters_after.get("runs_submitted", 0) == (
            counters_before.get("runs_submitted", 0)
        )
        assert after["runs_tracked"] == before["runs_tracked"]

    def test_plain_post_still_runs(self, client):
        status, _, body = client.post_json("/v1/runs", SPEC)
        assert status == 202
        assert "engine" not in body
        assert client.wait_done(body["run_id"])["state"] == "done"
