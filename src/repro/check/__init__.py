"""Static conflict/hazard analysis for scenario specs and programs.

``repro check <spec.json|grid.json>`` runs four passes; only a program
point's timing pass, the one ``simulate()`` runs, simulates cycles:

* **conflict analysis** (``CF1xx``) — closed-form conflict-free /
  conflict-prone verdicts from the paper's stride-family arithmetic,
  with the predicted ``T+L+1`` minimum access time where it applies;
  a conflict-prone order is a warning under every mode;
* **program hazards** (``HZ2xx``) — RAW/WAR/WAW chains, dead writes,
  store/load span aliasing, and the batches the decoupled machine's
  timing pass formed, with the reason each one broke;
* **spec lint** (``SL3xx``) — unknown kinds and the registry's
  parameter rule (names and types), degenerate grid axes, and whatever
  ``simulate()``'s own build step and a program's value and timing
  passes refuse;
* **grid dedupe** (``DD4xx``) — duplicate design points flagged before
  submission.

An error finding is what ``simulate()`` refuses: a plan the drive's
order cannot build (``CF104``) or a build, value-pass or timing-pass
refusal (``SL303``), each with ``simulate()``'s message, plus the lint errors
(``SL301``, ``SL302``, ``SL304``, ``SL306``) that stop a spec first.
Check restates none of ``simulate()``'s rules: the kind names and the
parameter names and types are the registry's, read from each kind's
factory signature, ``SL306`` and the build step the scenario facade's,
and the value pass, the timing pass and its batches the decoupled
machine's.

Findings speak one grammar — ``RULE_ID · severity · location ·
message`` — and the submit-time subset (:func:`require_submittable`)
is the lab's submit gate: :func:`repro.lab.jobs.scenario_jobs` runs it
for ``repro lab sweep``, ``repro scenario run --lab`` and
``POST /v1/runs`` alike, so a bad submission is rejected with
structured diagnostics instead of burning simulation cycles.
"""

from repro.check.findings import CheckError, CheckReport, Finding
from repro.check.runner import (
    check_document,
    check_path,
    require_submittable,
    submit_findings,
)

__all__ = [
    "CheckError",
    "CheckReport",
    "Finding",
    "check_document",
    "check_path",
    "require_submittable",
    "submit_findings",
]
