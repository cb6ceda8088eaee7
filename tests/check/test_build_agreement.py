"""``repro check`` refuses exactly the specs ``simulate()`` refuses.

Both build a spec through :func:`repro.scenarios.facade.build_point`
(then the point's program and machine, and a program's value pass),
and both read the registry's one parameter-name rule, so a spec has an
error finding exactly when :func:`~repro.scenarios.simulate` raises,
and one of those findings carries its message.  The specs are
generated from the registry: every workload and program kind's example
params on a matched-XOR memory under twelve drive variants, plus a
machine-only spec with neither workload nor program, so a new kind
joins automatically.  Hand-written probes add programs the value pass
refuses, parameter names the registry refuses and access fields that
are not integers.
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

#: Drive variants by label: the planner's default mode and its two
#: forced orders, the Figure 6 engine, and the decoupled machine as it
#: comes, under both forced plan modes, chaining, on a short register,
#: on registers of length 0 and -1, and with no execute start-up.
DRIVES = {
    "planner": {"kind": "planner"},
    "planner-conflict-free": {
        "kind": "planner",
        "params": {"mode": "conflict_free"},
    },
    "planner-subsequence": {
        "kind": "planner",
        "params": {"mode": "subsequence"},
    },
    "figure6": {"kind": "figure6"},
    "decoupled": {"kind": "decoupled"},
    "decoupled-conflict-free": {
        "kind": "decoupled",
        "params": {"plan_mode": "conflict_free"},
    },
    "decoupled-subsequence": {
        "kind": "decoupled",
        "params": {"plan_mode": "subsequence"},
    },
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
        (
            DAXPY,
            {"register_length": "x"},
            "machine field 'register_length' must be an integer, got 'x'",
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
        "register-x",
    ],
)
def test_only_null_takes_a_default_and_the_machine_refuses_bad_types(
    section, params, message
):
    """A register length of 0 is not unset, and the machine refuses a
    field of the wrong type, on a program point before the program's
    factory sees it: ``simulate()`` raises and check reports the same
    message as SL303."""
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


def instructions(*lines: str) -> dict:
    """A program point running ``lines`` on the default machine."""
    return {
        **MACHINE,
        "program": {"kind": "instructions", "params": {"lines": list(lines)}},
        "drive": {"kind": "decoupled"},
    }


@pytest.mark.parametrize(
    "document, message",
    [
        (
            instructions("vadd v2, v1, v1, length=8"),
            "instruction 0 (ADD): register V1 read before any definition",
        ),
        (
            instructions(
                ".fill base=0, stride=1, count=128, value=1.0",
                "vload v1, base=0, stride=1, length=128",
            ),
            "access length 128 exceeds the register length 64",
        ),
        (
            instructions(
                ".init base=0, stride=1, values=1;2;3;4",
                "vload v1, base=0, stride=1, length=4",
                "vadd v1, v1, v1, length=4",
            ),
            "element 0 read before it was written",
        ),
        (
            instructions("vload v1, base=0, stride=4, length=8"),
            "read of uninitialised address 0 (module 0, displacement 0)",
        ),
    ],
    ids=[
        "undefined-register",
        "access-longer-than-register",
        "destination-is-operand",
        "uninitialised-load",
    ],
)
def test_check_runs_the_value_pass(document, message):
    """A program the machine's value pass refuses is refused by check,
    as SL303 with the value pass's message."""
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", message)
    ]


def mapping_params(**params) -> dict:
    return {
        "mapping": {"kind": "matched-xor", "params": params},
        "memory": {"t": 3},
        **STRIDED,
    }


def daxpy_params(**params) -> dict:
    return {
        **MACHINE,
        "program": {"kind": "daxpy", "params": params},
        "drive": {"kind": "decoupled"},
    }


@pytest.mark.parametrize(
    "document, message",
    [
        (
            mapping_params(t=3, s=4, warp=1),
            "unknown parameter 'warp' for mapping kind 'matched-xor'",
        ),
        (
            mapping_params(t=3),
            "missing required parameter 's' for mapping kind 'matched-xor'",
        ),
        (
            mapping_params(t=3, s=4, address_bits=16),
            "parameter 'address_bits' shadows a reserved context name of "
            "mapping kind 'matched-xor'; the scenario layer supplies it",
        ),
        (
            daxpy_params(n=96, warp=1),
            "unknown parameter 'warp' for program kind 'daxpy' (accepted: "
            "alpha, x_base, x_stride, y_base, y_stride)",
        ),
        (
            daxpy_params(),
            "missing required parameter 'n' for program kind 'daxpy'",
        ),
        (
            daxpy_params(n=96, register_length=32),
            "parameter 'register_length' shadows a reserved context name "
            "of program kind 'daxpy'; the scenario layer supplies it",
        ),
    ],
    ids=[
        "mapping-unknown",
        "mapping-missing",
        "mapping-shadowing",
        "program-unknown",
        "program-missing",
        "program-shadowing",
    ],
)
def test_a_bad_parameter_name_is_refused_in_one_sentence(document, message):
    """The registry's one parameter-name rule: ``simulate()`` refuses a
    bad name with the sentence lint reports as SL302."""
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL302", message)
    ]


def test_a_factory_body_type_error_keeps_the_bad_parameters_wrapping():
    """Every name fits, but the factory cannot use a value: the refusal
    is the registry's ``bad parameters`` sentence with the kind's
    example, from ``simulate()`` and check alike."""
    document = {
        **MACHINE,
        "workload": {"kind": "bit-reversal", "params": {"bits": "x"}},
    }
    message = refusal(document)
    assert message.startswith(
        "bad parameters for workload kind 'bit-reversal': "
    )
    assert message.endswith("(example params: {'bits': 6})")
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", message)
    ]


@pytest.mark.parametrize(
    "workload, message",
    [
        (
            {"kind": "strided", "params": {"stride": "x", "length": 128}},
            "stride must be an integer, got 'x'",
        ),
        (
            {"kind": "strided", "params": {"stride": 12.0, "length": 128}},
            "stride must be an integer, got 12.0",
        ),
        (
            {
                "kind": "gather",
                "params": {"indices": [3.0, 1, 4, 1, 5, 9, 2, 6]},
            },
            "indices[0] must be an integer, got 3.0",
        ),
    ],
    ids=["string-stride", "float-stride", "float-index"],
)
def test_an_access_holds_integers(workload, message, tmp_path, capsys):
    """An access field that is not an integer is refused with a message
    naming the field: ``scenario run`` exits 2 printing it, and check
    reports it as SL303.  A float stride equal to an integer does not
    run as that integer."""
    from repro.cli import main

    document = {**MACHINE, "workload": workload}
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", message)
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    assert main(["scenario", "run", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
