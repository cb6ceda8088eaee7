"""``repro check`` refuses exactly the specs ``simulate()`` refuses.

Both build a spec through :func:`repro.scenarios.facade.build_point`
(then the point's program and machine, and a program's value and
timing passes), and both read the registry's one kind rule and one
parameter rule, names and types, so a
spec has an error finding exactly when :func:`~repro.scenarios.simulate`
raises, and one of those findings carries its message.  The specs are
generated from the registry: every workload and program kind's example
params on a matched-XOR memory under twelve drive variants, plus a
machine-only spec with neither workload nor program, so a new kind
joins automatically; and, for every annotated parameter of every kind,
its example with one value of the wrong type.  Hand-written probes add
programs the value pass refuses, kind and parameter names the registry
refuses and values that are not spec values.
"""

from __future__ import annotations

import json
import types
from typing import Literal, Union, get_args, get_origin

import pytest

from repro.check import check_document
from repro.errors import ConfigurationError, SimulationError
from repro.processor import DecoupledVectorMachine
from repro.scenarios import (
    CATEGORIES,
    DRIVE,
    MAPPING,
    PROGRAM,
    WORKLOAD,
    ScenarioSpec,
    example_params,
    kinds,
    registry,
    simulate,
)

MACHINE = {
    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
    "memory": {"t": 3},
}
STRIDED = {
    "workload": {"kind": "strided", "params": {"stride": 12, "length": 128}}
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


def wrong_values(annotation, valid) -> list:
    """Values of the wrong type for a parameter declared ``annotation``
    whose example value is ``valid`` (``None`` when the example leaves
    it unset): a bool where an int or float is declared, a float where
    an int is, a string where a number is, a number where a string or
    bool is; a value outside a ``Literal``'s list; for a
    ``Sequence[X]``, its first item where the list goes and the list
    with a wrong X first."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (Union, types.UnionType):
        [annotation] = [arg for arg in args if arg is not type(None)]
        origin, args = get_origin(annotation), get_args(annotation)
    if annotation is int:
        return [True, 1.0 if valid is None else float(valid), "x"]
    if annotation is float:
        return [True, "x"]
    if annotation in (bool, str):
        return [1]
    if origin is Literal:
        return [1, "x"]
    [item] = args
    return [
        valid[0],
        *([wrong, *valid[1:]] for wrong in wrong_values(item, valid[0])),
    ]


def probe_document(category: str, kind: str, params: dict) -> dict:
    """A runnable spec around one component of ``category``."""
    component = {"kind": kind, "params": params}
    if category == MAPPING:
        return {**MACHINE, **STRIDED, "mapping": component}
    if category == WORKLOAD:
        return {**MACHINE, "workload": component}
    if category == PROGRAM:
        return {**MACHINE, "program": component, "drive": {"kind": "decoupled"}}
    return {**MACHINE, **STRIDED, "drive": component}


def shown(value) -> str:
    """A probe value in a test id (a list by its first item)."""
    return f"[{value[0]!r}, ...]" if isinstance(value, list) else repr(value)


def wrong_type_probes() -> list:
    probes = []
    for category in CATEGORIES:
        for kind in kinds(category):
            example = example_params(category, kind)
            table = registry.parameter_table(category, kind)
            for name, rule in table.rules.items():
                for value in wrong_values(rule.annotation, example.get(name)):
                    probes.append(
                        pytest.param(
                            category,
                            kind,
                            name,
                            probe_document(
                                category, kind, {**example, name: value}
                            ),
                            id=f"{category}-{kind}-{name}-{shown(value)}",
                        )
                    )
    return probes


@pytest.mark.parametrize("category, kind, name, document", wrong_type_probes())
def test_a_wrong_type_is_refused_in_the_registry_s_words(
    category, kind, name, document
):
    """Every annotated parameter of every kind refuses a value of the
    wrong type before its factory runs: ``simulate()`` raises a
    ``ConfigurationError`` whose message is the spec's one error
    finding, the registry's SL302 sentence naming the parameter."""
    report = check_document(json.dumps(document), source="probe")
    [(rule_id, message)] = [(f.rule_id, f.message) for f in report.errors]
    assert rule_id == "SL302"
    assert message.startswith(
        f"parameter {name!r} of {category} kind {kind!r} must be "
    )
    with pytest.raises(ConfigurationError) as refused:
        simulate(ScenarioSpec.from_dict(document))
    assert type(refused.value) is ConfigurationError
    assert str(refused.value) == message


def test_every_parameter_a_spec_sets_has_a_type():
    """The wrong-type probe reaches every parameter: each name a spec
    may set is annotated in its factory's signature."""
    for category in CATEGORIES:
        for kind in kinds(category):
            table = registry.parameter_table(category, kind)
            assert table.rules.keys() == table.accepted, (category, kind)


DAXPY = {"program": {"kind": "daxpy", "params": {"n": 96}}}


@pytest.mark.parametrize(
    "section, params, rule_id, message",
    [
        (
            DAXPY,
            {"execute_startup": 2.5},
            "SL302",
            "parameter 'execute_startup' of drive kind 'decoupled' must be "
            "an integer, got 2.5",
        ),
        (
            DAXPY,
            {"register_length": True},
            "SL302",
            "parameter 'register_length' of drive kind 'decoupled' must be "
            "an integer or null, got True",
        ),
        (
            DAXPY,
            {"register_length": 64.0},
            "SL302",
            "parameter 'register_length' of drive kind 'decoupled' must be "
            "an integer or null, got 64.0",
        ),
        (
            STRIDED,
            {"register_length": 128.0},
            "SL302",
            "parameter 'register_length' of drive kind 'decoupled' must be "
            "an integer or null, got 128.0",
        ),
        (
            DAXPY,
            {"register_length": 0},
            "SL303",
            "register_length must be >= 1, got 0",
        ),
        (
            STRIDED,
            {"register_length": 0},
            "SL303",
            "register_length 0 is shorter than the workload vector "
            "(128 elements)",
        ),
        (
            DAXPY,
            {"chaining": 1},
            "SL302",
            "parameter 'chaining' of drive kind 'decoupled' must be a "
            "boolean, got 1",
        ),
        (
            DAXPY,
            {"register_length": "x"},
            "SL302",
            "parameter 'register_length' of drive kind 'decoupled' must be "
            "an integer or null, got 'x'",
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
    section, params, rule_id, message
):
    """A register length of 0 is not unset: the program's strip-miner,
    or the workload's vector, refuses it (SL303).  A drive field of the
    wrong type never reaches the machine: the registry refuses it first,
    as SL302.  ``simulate()`` raises the message check reports."""
    document = {
        **MACHINE,
        **section,
        "drive": {"kind": "decoupled", "params": params},
    }
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        (rule_id, message)
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


def test_check_runs_the_timing_pass(monkeypatch):
    """Check times a program point as ``simulate()`` does, so an error
    the timing pass raises is SL303 with its message."""
    def failing(self, resolved):
        raise SimulationError("the schedule check failed")

    monkeypatch.setattr(DecoupledVectorMachine, "time", failing)
    document = {**MACHINE, **DAXPY, "drive": {"kind": "decoupled"}}
    assert refusal(document) == "the schedule check failed"
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", "the schedule check failed")
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


@pytest.mark.parametrize(
    "category, typo, intended",
    [
        (MAPPING, "matched-xr", "matched-xor"),
        (WORKLOAD, "stided", "strided"),
        (DRIVE, "planer", "planner"),
        (PROGRAM, "daxpi", "daxpy"),
    ],
    ids=CATEGORIES,
)
def test_an_unknown_kind_is_refused_in_one_sentence(category, typo, intended):
    """A close typo of a kind in each category: ``simulate()`` raises a
    ``ConfigurationError`` whose message is the spec's one error
    finding, the registry's SL301 sentence with its close-match hint."""
    document = probe_document(
        category, typo, example_params(category, intended)
    )
    report = check_document(json.dumps(document), source="probe")
    [(rule_id, message)] = [(f.rule_id, f.message) for f in report.errors]
    assert rule_id == "SL301"
    assert message.startswith(f"unknown {category} kind {typo!r} (registered: ")
    assert repr(intended) in message.partition("; did you mean ")[2]
    with pytest.raises(ConfigurationError) as refused:
        simulate(ScenarioSpec.from_dict(document))
    assert type(refused.value) is ConfigurationError
    assert str(refused.value) == message


@pytest.fixture
def broken_kind(monkeypatch) -> str:
    """A workload kind, registered for one test, whose factory body
    raises ``TypeError`` on values of the types it declares."""
    monkeypatch.setattr(
        registry,
        "_REGISTRY",
        {category: dict(entries) for category, entries in registry._REGISTRY.items()},
    )

    @registry.register(WORKLOAD, "broken", example={"n": 4})
    def _broken(n: int):
        raise TypeError(f"cannot lay out {n} elements")

    return "broken"


def test_a_factory_body_type_error_keeps_the_bad_parameters_wrapping(
    broken_kind,
):
    """Every name and type fits, but the factory's body raises
    ``TypeError``: the refusal is the registry's ``bad parameters``
    sentence with the kind's example, from ``simulate()`` and check
    alike."""
    document = {
        **MACHINE,
        "workload": {"kind": broken_kind, "params": {"n": 4}},
    }
    message = refusal(document)
    assert message == (
        "bad parameters for workload kind 'broken': cannot lay out 4 "
        "elements (example params: {'n': 4})"
    )
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL303", message)
    ]


@pytest.mark.parametrize(
    "workload, message",
    [
        (
            {"kind": "strided", "params": {"stride": "x", "length": 128}},
            "parameter 'stride' of workload kind 'strided' must be an "
            "integer, got 'x'",
        ),
        (
            {"kind": "strided", "params": {"stride": 12.0, "length": 128}},
            "parameter 'stride' of workload kind 'strided' must be an "
            "integer, got 12.0",
        ),
        (
            {
                "kind": "gather",
                "params": {"indices": [3, 1.0, 4, 1, 5, 9, 2, 6]},
            },
            "parameter 'indices' of workload kind 'gather' must be a list "
            "of integers, got 1.0 at index 1",
        ),
    ],
    ids=["string-stride", "float-stride", "float-index"],
)
def test_an_access_holds_integers(workload, message, tmp_path, capsys):
    """An access field that is not an integer is refused in the
    registry's words, naming the parameter (and the list item):
    ``scenario run`` exits 2 printing it, and check reports it as
    SL302.  A float stride equal to an integer does not run as that
    integer."""
    from repro.cli import main

    document = {**MACHINE, "workload": workload}
    assert refusal(document) == message
    report = check_document(json.dumps(document), source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL302", message)
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    assert main(["scenario", "run", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_number_is_not_a_spec_value(literal, tmp_path, capsys):
    """Python's ``json`` reads NaN and Infinity, which JSON has not: a
    spec holding one is refused as it is parsed, so ``scenario run``
    exits 2 and check reports SL304, in one sentence."""
    from repro.cli import main

    text = json.dumps(
        {**MACHINE, **DAXPY, "drive": {"kind": "decoupled"}}
    ).replace('"n": 96', f'"n": 96, "alpha": {literal}')
    shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}[literal]
    message = (
        f"param 'alpha' values must be finite, got {shown} (JSON has no "
        "NaN or Infinity)"
    )
    report = check_document(text, source="probe")
    assert [(f.rule_id, f.message) for f in report.errors] == [
        ("SL304", message)
    ]
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["scenario", "run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {
                **MACHINE,
                **DAXPY,
                "mapping": {"kind": "matched-xr", "params": {"t": 3, "s": 4}},
                "drive": {"kind": "planner"},
            },
            "scenario programs run on the decoupled machine; set drive "
            "kind to 'decoupled' (got 'planner')",
        ),
        (
            {
                **MACHINE,
                "mapping": {"kind": "matched-xr", "params": {"t": 3, "s": 4}},
                "workload": {
                    "kind": "stided",
                    "params": {"stride": 12, "length": 128},
                },
            },
            "unknown workload kind 'stided'",
        ),
    ],
    ids=["program-planner-mapping", "workload-mapping"],
)
def test_a_spec_with_two_faults_is_refused_for_the_first_built(
    document, message, tmp_path, capsys
):
    """Lint lists a spec's faults in the order ``simulate()`` builds
    its parts (the drive refusal, then drive, workload, mapping and
    program), so check's first error, and what plain ``scenario run``
    prints, is the error ``simulate()`` raises, not the mapping's."""
    from repro.cli import main

    expected = refusal(document)
    assert expected.startswith(message)
    report = check_document(json.dumps(document), source="probe")
    assert len(report.errors) == 2
    assert report.errors[0].message == expected
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    assert main(["scenario", "run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
