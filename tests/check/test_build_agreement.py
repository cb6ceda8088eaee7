"""``repro check`` refuses exactly the specs ``simulate()`` refuses.

Both build a spec through :func:`repro.scenarios.facade.build_point`
(then the point's program and machine), so a spec has an error finding
exactly when :func:`~repro.scenarios.simulate` raises, and one of those
findings carries its message.  The specs are generated from the
registry: every workload and program kind's example params on a
matched-XOR memory under nine drive variants, plus a machine-only spec
with neither workload nor program, so a new kind joins automatically.
"""

from __future__ import annotations

import json

import pytest

from repro.check import check_document
from repro.scenarios import (
    PROGRAM,
    WORKLOAD,
    ScenarioSpec,
    example_params,
    kinds,
    simulate,
)

MACHINE = {
    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
    "memory": {"t": 3},
}

#: Drive variants by label: the planner's default and strictest modes,
#: the Figure 6 engine, and the decoupled machine as it comes, chaining,
#: on a short register, on registers of length 0 and -1, and with no
#: execute start-up.
DRIVES = {
    "planner": {"kind": "planner"},
    "planner-conflict-free": {
        "kind": "planner",
        "params": {"mode": "conflict_free"},
    },
    "figure6": {"kind": "figure6"},
    "decoupled": {"kind": "decoupled"},
    "decoupled-chaining": {"kind": "decoupled", "params": {"chaining": True}},
    "register-8": {"kind": "decoupled", "params": {"register_length": 8}},
    "register-0": {"kind": "decoupled", "params": {"register_length": 0}},
    "register-minus-1": {
        "kind": "decoupled",
        "params": {"register_length": -1},
    },
    "no-startup": {"kind": "decoupled", "params": {"execute_startup": 0}},
}


def probe_specs() -> list:
    specs = [
        pytest.param(
            {
                **MACHINE,
                category: {
                    "kind": kind,
                    "params": example_params(category, kind),
                },
                "drive": drive,
            },
            id=f"{category}-{kind}-{label}",
        )
        for category in (WORKLOAD, PROGRAM)
        for kind in kinds(category)
        for label, drive in DRIVES.items()
    ]
    specs.append(pytest.param(dict(MACHINE), id="machine-only"))
    return specs


def refusal(document: dict) -> str | None:
    """``simulate()``'s error message for a spec, or None if it runs."""
    try:
        simulate(ScenarioSpec.from_dict(document))
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return str(error)
    return None


@pytest.mark.parametrize("document", probe_specs())
def test_check_errs_exactly_when_simulate_refuses(document):
    expected = refusal(document)
    report = check_document(json.dumps(document), source="probe")
    errors = [f.message for f in report.findings if f.severity == "error"]
    if expected is None:
        assert errors == [], report.render()
    else:
        assert any(expected in message for message in errors), (
            expected,
            report.render(),
        )


def test_the_probe_covers_every_kind():
    kind_count = len(kinds(WORKLOAD)) + len(kinds(PROGRAM))
    assert len(probe_specs()) == kind_count * len(DRIVES) + 1


DAXPY = {"program": {"kind": "daxpy", "params": {"n": 96}}}
STRIDED = {
    "workload": {"kind": "strided", "params": {"stride": 12, "length": 128}}
}


@pytest.mark.parametrize(
    "section, params, message",
    [
        (
            DAXPY,
            {"execute_startup": 2.5},
            "machine field 'execute_startup' must be an integer, got 2.5",
        ),
        (
            DAXPY,
            {"register_length": True},
            "machine field 'register_length' must be an integer, got True",
        ),
        (
            DAXPY,
            {"register_length": 64.0},
            "machine field 'register_length' must be an integer, got 64.0",
        ),
        (
            STRIDED,
            {"register_length": 128.0},
            "machine field 'register_length' must be an integer, got 128.0",
        ),
        (DAXPY, {"register_length": 0}, "register_length must be >= 1, got 0"),
        (
            STRIDED,
            {"register_length": 0},
            "register_length 0 is shorter than the workload vector "
            "(128 elements)",
        ),
        (
            DAXPY,
            {"chaining": 1},
            "machine field 'chaining' must be a boolean, got 1",
        ),
    ],
    ids=[
        "startup-2.5",
        "register-true",
        "register-64.0",
        "workload-register-128.0",
        "register-0",
        "workload-register-0",
        "chaining-1",
    ],
)
def test_only_null_takes_a_default_and_the_machine_refuses_bad_types(
    section, params, message
):
    """A register length of 0 is not unset, and the machine refuses a
    field of the wrong type: ``simulate()`` raises and check reports the
    same message as SL303."""
    document = {
        **MACHINE,
        **section,
        "drive": {"kind": "decoupled", "params": params},
    }
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", message)
    ]
