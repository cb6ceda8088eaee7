"""Analyzer conflict verdicts vs the memory kernel's ground truth.

The property the whole check subsystem stands on: for every sampled
(mapping, stride, length, ports, queue, mode) design point, the static
CF101 verdict holds exactly when the cycle-accurate kernel measures a
conflict-free run (latency equal to the T+L+1 minimum), and CF102
holds exactly when it does not.  The one exception is ``T = 1`` with a
one-slot input queue: every order is conflict-free there, yet
back-to-back requests to one module may stall, so the verdict is a
CF102 warning that names the queue.

The reference is a traced :func:`simulate` call, which always runs the
kernel; an untraced call may answer from the same ``T + L + 1``
arithmetic the check quotes, which would only check itself.
"""

from __future__ import annotations

import itertools
import json
import re

import pytest

from repro.check import check_document
from repro.obs import Tracer
from repro.scenarios import simulate, ScenarioSpec

#: (kind, params, memory t, module count).  The last three are
#: ``T = 1`` memories, probed with one- and two-slot input queues.
MAPPINGS = [
    ("matched-xor", {"t": 3, "s": 4}, 3, 8),
    ("matched-xor", {"t": 2, "s": 3}, 2, 4),
    ("section-xor", {"t": 3, "s": 4, "y": 9}, 3, 64),
    ("interleaved", {"m": 3}, 3, 8),
    ("skewed", {"m": 3, "s": 4}, 3, 8),
    ("interleaved", {"m": 0}, 0, 1),
    ("interleaved", {"m": 1}, 0, 2),
    ("matched-xor", {"t": 1, "s": 2}, 0, 2),
]
STRIDES = [1, 2, 3, 5, 8, 12, 24, 96, 1536]
LENGTHS = [64, 128]
PORTS = [1, 2]
MODES = ["auto", "ordered"]

_MINIMUM = re.compile(r"T\+L\+1 = (\d+) cycles")


def _spec_dict(kind, params, t, stride, length, ports, mode, q=1) -> dict:
    return {
        "name": "probe",
        "mapping": {"kind": kind, "params": params},
        "memory": {"t": t, "ports": ports, "q": q},
        "workload": {
            "kind": "strided",
            "params": {"base": 16, "stride": stride, "length": length},
        },
        "drive": {"kind": "planner", "params": {"mode": mode}},
    }


def measure(document: dict):
    """The kernel's measurement of one design point (traced, so never
    the closed form)."""
    return simulate(ScenarioSpec.from_dict(document), tracer=Tracer())


@pytest.mark.parametrize("mapping_kind,params,t,modules", MAPPINGS)
@pytest.mark.parametrize("mode", MODES)
def test_verdicts_match_kernel_measurement(
    mapping_kind, params, t, modules, mode
):
    queues = (1, 2) if t == 0 else (1,)
    points = itertools.product(STRIDES, LENGTHS, PORTS, queues)
    for stride, length, ports, q in points:
        if ports > modules:
            continue
        document = _spec_dict(
            mapping_kind, params, t, stride, length, ports, mode, q
        )
        report = check_document(json.dumps(document), source="probe")
        verdicts = [
            finding
            for finding in report.findings
            if finding.rule_id in ("CF101", "CF102", "CF104")
        ]
        assert len(verdicts) == 1, report.render()
        verdict = verdicts[0]
        assert verdict.rule_id != "CF104", verdict.render()

        result = measure(document)
        measured_cf = result.conflict_free
        point = (
            f"{mapping_kind}{params} t={t} q={q} stride={stride} "
            f"L={length} ports={ports} mode={mode}"
        )
        if t == 0 and q == 1:
            assert verdict.rule_id == "CF102", point
            assert verdict.severity == "warn", point
            assert "one-slot input queue" in verdict.message, point
            assert result.latency >= result.minimum_latency, point
            if modules == 1:
                # Back to back on one module: every request stalls.
                assert result.latency > result.minimum_latency, point
        elif verdict.rule_id == "CF101":
            assert measured_cf, f"static CF but kernel conflicts: {point}"
            assert result.latency == result.minimum_latency, point
            match = _MINIMUM.search(verdict.message)
            assert match, verdict.message
            assert int(match.group(1)) == result.minimum_latency, point
        else:
            assert not measured_cf, (
                f"static conflict-prone but kernel ran conflict-free: {point}"
            )
            assert result.latency > result.minimum_latency, point


def test_forced_mode_impossibility_is_an_error():
    document = _spec_dict(
        "matched-xor", {"t": 3, "s": 4}, 3, 96, 128, 1, "conflict_free"
    )
    report = check_document(json.dumps(document), source="probe")
    [verdict] = [
        finding
        for finding in report.findings
        if finding.rule_id.startswith("CF")
    ]
    assert verdict.rule_id == "CF104"
    assert verdict.severity == "error"
    assert report.exit_code == 1
    # ...and simulate() would indeed refuse this spec.
    from repro.errors import OrderingError

    with pytest.raises(OrderingError):
        measure(document)


def test_indexed_access_has_no_closed_form_verdict():
    document = {
        "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
        "memory": {"t": 3},
        "workload": {"kind": "bit-reversal", "params": {"bits": 6}},
    }
    report = check_document(json.dumps(document), source="probe")
    assert any(f.rule_id == "CF103" for f in report.findings)
    assert report.exit_code == 0
