"""Static conflict/hazard analysis for scenario specs and programs.

``repro check <spec.json|grid.json>`` runs four passes without a
single simulated cycle:

* **conflict analysis** (``CF1xx``) — closed-form conflict-free /
  conflict-prone verdicts from the paper's stride-family arithmetic,
  with the predicted ``T+L+1`` minimum access time where it applies;
* **program hazards** (``HZ2xx``) — RAW/WAR/WAW chains, dead writes,
  store/load span aliasing, and a static batchability report from the
  decoupled machine's own batching rule, with the breaks that rest on
  an assumption marked as assumed;
* **spec lint** (``SL3xx``) — unknown kinds/parameters, invalid
  geometry, degenerate grid axes;
* **grid dedupe** (``DD4xx``) — duplicate design points flagged before
  submission.

Findings speak one grammar — ``RULE_ID · severity · location ·
message`` — and the submit-time subset (:func:`require_submittable`)
is the lab's submit gate: :func:`repro.lab.jobs.scenario_jobs` runs it
for ``repro lab sweep``, ``repro scenario run --lab`` and
``POST /v1/runs`` alike, so a bad submission is rejected with
structured diagnostics instead of burning simulation cycles.
"""

from repro.check.findings import CheckError, CheckReport, Finding
from repro.check.hazards import BatchBreak, BatchReport, predict_batches
from repro.check.runner import (
    check_document,
    check_path,
    require_submittable,
    submit_findings,
)

__all__ = [
    "BatchBreak",
    "BatchReport",
    "CheckError",
    "CheckReport",
    "Finding",
    "check_document",
    "check_path",
    "predict_batches",
    "require_submittable",
    "submit_findings",
]
