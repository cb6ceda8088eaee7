"""Analyzer conflict verdicts vs the memory kernel's ground truth.

The property the whole check subsystem stands on: for every sampled
(mapping, stride, length, ports, queue, mode) design point, the static
CF101 verdict holds exactly when the cycle-accurate kernel measures a
conflict-free run (latency equal to the T+L+1 minimum), and CF102
holds exactly when it does not.  The one exception is ``T = 1`` with a
one-slot input queue: every order is conflict-free there, yet
back-to-back requests to one module may stall, so the verdict is a
CF102 warning that names the queue.  Under the forced ``subsequence``
and ``conflict_free`` modes, CF104 holds exactly when ``simulate()``
raises, and a point that runs never gets an error finding: a
conflict-prone forced order is a CF102 warning like any other.  Under
the ``figure6`` drive the same holds for the Figure 6 engine's order,
and CF104 carries the engine's own refusal.  CF102 says latency *will*
exceed the minimum only on one port; a second port may hide a
conflict behind it.

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
from repro.errors import HardwareModelError, OrderingError
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
MODES = ["auto", "ordered", "subsequence", "conflict_free"]

_MINIMUM = re.compile(r"T\+L\+1 = (\d+) cycles")


def _spec_dict(kind, params, t, stride, length, ports, mode, q=1) -> dict:
    """A planner point under ``mode``, or a Figure 6 point when
    ``mode`` is ``"figure6"``."""
    drive = (
        {"kind": "figure6"}
        if mode == "figure6"
        else {"kind": "planner", "params": {"mode": mode}}
    )
    return {
        "name": "probe",
        "mapping": {"kind": kind, "params": params},
        "memory": {"t": t, "ports": ports, "q": q},
        "workload": {
            "kind": "strided",
            "params": {"base": 16, "stride": stride, "length": length},
        },
        "drive": drive,
    }


def measure(document: dict):
    """The kernel's measurement of one design point (traced, so never
    the closed form)."""
    return simulate(ScenarioSpec.from_dict(document), tracer=Tracer())


@pytest.mark.parametrize("mapping_kind,params,t,modules", MAPPINGS)
@pytest.mark.parametrize("mode", [*MODES, "figure6"])
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
        point = (
            f"{mapping_kind}{params} t={t} q={q} stride={stride} "
            f"L={length} ports={ports} mode={mode}"
        )
        try:
            result = measure(document)
        except (OrderingError, HardwareModelError) as error:
            assert verdict.rule_id == "CF104", point
            assert verdict.message.endswith(f": {error}"), point
            continue
        assert verdict.rule_id != "CF104", verdict.render()
        assert not report.errors, report.render()
        measured_cf = result.conflict_free
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
            if ports == 1 or mode != "subsequence":
                # A second port can hide the Section 3.1 order's stalls
                # behind the T+L+1 minimum, but never its conflicts.
                assert result.latency > result.minimum_latency, point
            exceed = "will exceed" if ports == 1 else "may exceed"
            assert f"latency {exceed} the" in verdict.message, point


def test_a_conflict_prone_forced_order_is_a_warning():
    """E04's design point: the Section 3.1 subsequence order is
    conflict-prone by design, and ``simulate()`` runs it within its
    2T+L bound, so check warns and exits 0."""
    document = _spec_dict(
        "matched-xor", {"t": 3, "s": 4}, 3, 12, 128, 1, "subsequence", q=2
    )
    report = check_document(json.dumps(document), source="probe")
    [verdict] = [
        finding
        for finding in report.findings
        if finding.rule_id.startswith("CF")
    ]
    assert (verdict.rule_id, verdict.severity) == ("CF102", "warn")
    assert report.exit_code == 0
    result = measure(document)
    assert result.minimum_latency < result.latency <= 2 * 8 + 128


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


def test_figure6_refusal_quotes_the_engine():
    """On a ``T = 1`` memory the engine's one-slot latch bank refuses
    stride 1; check quotes the engine, as ``scenario run`` prints it."""
    document = {
        "mapping": {"kind": "matched-xor", "params": {"t": 1, "s": 2}},
        "memory": {"t": 0},
        "workload": {
            "kind": "strided",
            "params": {"stride": 1, "length": 8},
        },
        "drive": {"kind": "figure6"},
    }
    report = check_document(json.dumps(document), source="probe")
    [verdict] = report.errors
    assert verdict.rule_id == "CF104"
    assert verdict.message == (
        "stride 1 (family x=0), length 8 cannot be ordered conflict-free "
        "by the Figure 6 engine (M=2 modules, T=1, ports=1): alignment "
        "key 1 outside the 1-slot latch bank — this mapping/stride pair "
        "is not supported by the Figure 6 engine"
    )
    with pytest.raises(HardwareModelError) as raised:
        measure(document)
    assert verdict.message.endswith(f": {raised.value}")


def test_a_subsequence_refusal_does_not_claim_conflict_freedom():
    """The Section 3.1 order is not a conflict-free order, so its
    refusal says only that the stride cannot be ordered."""
    document = _spec_dict(
        "matched-xor", {"t": 3, "s": 4}, 3, 96, 128, 1, "subsequence"
    )
    report = check_document(json.dumps(document), source="probe")
    [verdict] = report.errors
    assert verdict.rule_id == "CF104"
    assert verdict.message.startswith(
        "stride 96 (family x=5), length 128 cannot be ordered under mode "
        "'subsequence' (M=8 modules, T=8, ports=1): "
    )
    with pytest.raises(OrderingError) as raised:
        measure(document)
    assert verdict.message.endswith(f": {raised.value}")
