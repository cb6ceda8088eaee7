"""Submit-time static lint at the HTTP front door.

A POST whose specs fail `repro check`'s submit gate must be a 400
carrying the structured findings, must count in the rejection metrics,
and must never allocate (or leak) a run id.
"""

from __future__ import annotations

import copy

from tests.serve.conftest import SPEC


def bad_spec():
    spec = copy.deepcopy(SPEC)
    spec["name"] = "bad-param"
    spec["mapping"]["params"]["warp"] = 9
    return spec


class TestSubmitLint:
    def test_bad_param_is_400_with_structured_findings(self, client):
        status, _, body = client.post_json("/v1/runs", bad_spec())
        assert status == 400
        assert body["error"].startswith("CheckError: ")
        assert "static check error" in body["error"]
        [finding] = body["findings"]
        assert finding["rule_id"] == "SL302"
        assert finding["severity"] == "error"
        assert "warp" in finding["message"]
        assert "POST /v1/runs" in finding["location"]

    def test_a_wrong_typed_param_is_400_in_the_registry_s_words(self, client):
        spec = copy.deepcopy(SPEC)
        spec["workload"] = {"kind": "bit-reversal", "params": {"bits": True}}
        status, _, body = client.post_json("/v1/runs", spec)
        assert status == 400
        [finding] = body["findings"]
        assert (finding["rule_id"], finding["message"]) == (
            "SL302",
            "parameter 'bits' of workload kind 'bit-reversal' must be an "
            "integer, got True",
        )

    def test_a_non_finite_number_is_400(self, client):
        spec = copy.deepcopy(SPEC)
        del spec["workload"]
        spec["program"] = {
            "kind": "daxpy",
            "params": {"n": 96, "alpha": float("nan")},
        }
        spec["drive"] = {"kind": "decoupled"}
        status, _, body = client.post_json("/v1/runs", spec)
        assert status == 400
        assert body["error"] == (
            "ConfigurationError: param 'alpha' values must be finite, got "
            "nan (JSON has no NaN or Infinity)"
        )

    def test_rejection_counts_and_leaks_no_run(self, app, client):
        _, metrics_before = client.get_json("/v1/metrics")
        status, _, body = client.post_json("/v1/runs", bad_spec())
        assert status == 400
        assert "run_id" not in body
        _, metrics_after = client.get_json("/v1/metrics")
        assert (
            metrics_after["counters"].get("runs_rejected", 0)
            == metrics_before["counters"].get("runs_rejected", 0) + 1
        )
        assert metrics_after["counters"].get(
            "runs_submitted", 0
        ) == metrics_before["counters"].get("runs_submitted", 0)
        assert metrics_after["runs_tracked"] == metrics_before["runs_tracked"]

    def test_non_check_parse_failures_also_count_as_rejected(self, client):
        _, metrics_before = client.get_json("/v1/metrics")
        status, _, _body = client.post_json("/v1/runs", {"memory": {"t": 3}})
        assert status == 400
        _, metrics_after = client.get_json("/v1/metrics")
        assert (
            metrics_after["counters"].get("runs_rejected", 0)
            == metrics_before["counters"].get("runs_rejected", 0) + 1
        )

    def test_duplicate_points_warn_but_still_submit(self, client):
        twin = copy.deepcopy(SPEC)
        twin["name"] = "serve-test-twin"
        status, _, body = client.post_json("/v1/runs", [SPEC, twin])
        assert status == 202
        client.wait_done(body["run_id"])

    def test_one_post_is_linted_once(self, client, monkeypatch):
        import repro.check

        sources = []
        lint = repro.check.require_submittable

        def counting(specs, **kwargs):
            sources.append(kwargs.get("source"))
            return lint(specs, **kwargs)

        monkeypatch.setattr(repro.check, "require_submittable", counting)
        status, _, body = client.post_json("/v1/runs", SPEC)
        assert status == 202
        assert client.wait_done(body["run_id"])["state"] == "done"
        assert sources == ["POST /v1/runs"]

    def test_clean_spec_still_submits(self, client):
        status, _, body = client.post_json("/v1/runs", SPEC)
        assert status == 202
        final = client.wait_done(body["run_id"])
        assert final["state"] == "done"
