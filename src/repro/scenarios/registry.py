"""Kind registries: the string -> factory tables behind scenario specs.

Four categories, one registry each:

* ``"mapping"`` — address mappings (module-number component ``F``);
* ``"workload"`` — access streams (strided, indexed, kernel);
* ``"drive"`` — how requests reach the memory (planner, Figure 6
  engine, the decoupled machine);
* ``"program"`` — whole vector programs for the decoupled machine
  (inline instruction lists, assembler text, or named strip-mined
  kernels such as ``daxpy``).

A factory takes the spec's parameters as keyword arguments (plus the
category's context, :data:`CONTEXT_NAMES`) and returns the live
component.  Unknown kinds and unknown/invalid parameters raise
:class:`~repro.errors.ConfigurationError` with the known alternatives
spelled out, so a typo in a JSON spec fails with a readable message
instead of a stack trace from deep inside a constructor.

A factory's signature is the one statement of its parameters' names
and types: :func:`parameter_table` resolves it once into the names a
kind accepts, requires and reserves for context, and one
:class:`ParameterRule` per annotated parameter (``int`` excludes
``bool``; ``float`` takes an ``int`` or ``float`` but not a ``bool``;
``bool``; ``str``; ``X | None``; ``Literal[...]`` admits its listed
values; ``Sequence[X]`` is a list of ``X``).  :func:`parameter_errors`
states the rule in sentences: ``repro check`` reports them as
``SL302``, and :func:`build` raises the first before it calls the
factory, so a factory sees only values of the types it declares.
"""

from __future__ import annotations

import inspect
import re
import types
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, NamedTuple, Union, get_args, get_origin

from repro.errors import ConfigurationError
from repro.scenarios.spec import ComponentSpec

MAPPING = "mapping"
WORKLOAD = "workload"
DRIVE = "drive"
PROGRAM = "program"

CATEGORIES = (MAPPING, WORKLOAD, DRIVE, PROGRAM)

#: The parameter names :func:`build` supplies to a category's factories
#: from the scenario rather than from the spec's params: the memory's
#: address width for a mapping, the machine's register length for a
#: program.  A spec param with one of these names shadows it.
CONTEXT_NAMES: dict[str, frozenset[str]] = {
    MAPPING: frozenset({"address_bits"}),
    PROGRAM: frozenset({"register_length"}),
}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The scalar annotations a rule reads: what each admits (a ``bool`` is
#: an ``int``, so ``int`` and ``float`` leave it out) and the nouns that
#: name one value and a list of values in a refusal.
_SCALARS: dict[object, tuple[Callable[[object], bool], str, str]] = {
    int: (_is_int, "an integer", "integers"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number", "numbers"),
    bool: (lambda v: isinstance(v, bool), "a boolean", "booleans"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}


class ParameterRule(NamedTuple):
    """One annotated parameter's type: what it admits, the noun a
    refusal names that by, and a ``Sequence[X]``'s test of one item."""

    annotation: object
    admits: Callable[[object], bool]
    noun: str
    item: Callable[[object], bool] | None = None


def _rule(annotation: object) -> ParameterRule:
    """The rule of one parameter annotation (see the module docstring)."""
    if annotation in _SCALARS:
        return ParameterRule(annotation, *_SCALARS[annotation][:2])
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Literal:
        return ParameterRule(
            annotation,
            lambda value: any(
                type(value) is type(arg) and value == arg for arg in args
            ),
            f"one of {', '.join(map(repr, args))}",
        )
    if origin in (Union, types.UnionType) and args[1:] == (type(None),):
        inner = _rule(args[0])
        return inner._replace(
            annotation=annotation,
            admits=lambda value: value is None or inner.admits(value),
            noun=f"{inner.noun} or null",
        )
    if origin is Sequence and args and args[0] in _SCALARS:
        item, _noun, plural = _SCALARS[args[0]]
        return ParameterRule(
            annotation,
            lambda value: isinstance(value, (list, tuple)) and all(map(item, value)),
            f"a list of {plural}",
            item,
        )
    raise TypeError(f"no parameter rule for annotation {annotation!r}")


def _refusal(rule: ParameterRule, value: object) -> str:
    """What a refusal says it got: the value (a list as a list), or a
    list's first item the rule's item test fails."""
    if rule.item is not None and isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            if not rule.item(item):
                return f"{item!r} at index {index}"
    return repr(list(value) if isinstance(value, tuple) else value)


class ParameterTable(NamedTuple):
    """A registered factory's signature, resolved once: the names a spec
    may set (``accepted``) and must set (``required``), the category's
    :data:`CONTEXT_NAMES` (``reserved``) and those the factory takes
    (``context``), whether it takes ``**kwargs`` (any name goes), and
    one :class:`ParameterRule` per annotated accepted name."""

    accepted: frozenset[str]
    required: frozenset[str]
    reserved: frozenset[str]
    context: frozenset[str]
    takes_kwargs: bool
    rules: dict[str, ParameterRule]


@dataclass
class _Entry:
    """One registered kind: its factory plus a runnable example."""

    category: str
    factory: Callable
    example: dict
    summary: str

    @cached_property
    def parameters(self) -> ParameterTable:
        """The factory's :class:`ParameterTable`, resolved once.

        ``inspect.signature`` is surprisingly expensive and factories
        are immutable after registration, so every ``build`` call (a
        grid sweep makes thousands) shares one resolution.
        """
        reserved = CONTEXT_NAMES.get(self.category, frozenset())
        parameters = inspect.signature(self.factory, eval_str=True).parameters
        takes_kwargs = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
        accepted = {
            name: p
            for name, p in parameters.items()
            if name not in reserved
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        }
        return ParameterTable(
            frozenset(accepted),
            frozenset(n for n, p in accepted.items() if p.default is p.empty),
            reserved,
            reserved if takes_kwargs else reserved.intersection(parameters),
            takes_kwargs,
            {
                name: _rule(p.annotation)
                for name, p in sorted(accepted.items())
                if p.annotation is not p.empty
            },
        )


_REGISTRY: dict[str, dict[str, _Entry]] = {
    category: {} for category in CATEGORIES
}


def register(category: str, kind: str, *, example: dict, summary: str = ""):
    """Decorator registering ``factory`` as ``kind`` in ``category``.

    ``example`` is a complete, feasible parameter set for the kind; the
    round-trip tests and ``repro scenario list`` both consume it, so
    every registered component ships with a working starting point.
    """
    if category not in _REGISTRY:
        raise ConfigurationError(
            f"unknown registry category {category!r} "
            f"(known: {', '.join(CATEGORIES)})"
        )

    def wrap(factory: Callable) -> Callable:
        if kind in _REGISTRY[category]:
            raise ConfigurationError(
                f"duplicate registration of {category} kind {kind!r}"
            )
        _REGISTRY[category][kind] = _Entry(
            category,
            factory,
            dict(example),
            summary or (factory.__doc__ or "").strip(),
        )
        return factory

    return wrap


def kinds(category: str) -> list[str]:
    """Registered kinds of one category, sorted."""
    _check_category(category)
    return sorted(_REGISTRY[category])


def example_params(category: str, kind: str) -> dict:
    """A copy of the registered example parameter set."""
    return dict(_entry(category, kind).example)


def summary(category: str, kind: str) -> str:
    """First line of a registered kind's summary (default: its docstring)."""
    return _entry(category, kind).summary.splitlines()[0]


def build(category: str, spec: ComponentSpec, **context):
    """Instantiate one component from its spec.

    ``context`` carries the category's :data:`CONTEXT_NAMES` values (the
    memory's ``address_bits`` for mappings, the machine's
    ``register_length`` for programs).  A factory declares the context
    it uses; the rest is filtered out here.  Params that do not fit the
    kind's :class:`ParameterTable` are refused with the first of
    :func:`parameter_errors`' sentences before the factory is called; a
    :class:`TypeError` the factory's body raises is refused as ``bad
    parameters`` with the kind's example.
    """
    problems = parameter_errors(category, spec)
    if problems:
        raise ConfigurationError(problems[0])
    entry = _entry(category, spec.kind)
    context_names = entry.parameters.context
    passed_context = {
        key: value for key, value in context.items() if key in context_names
    }
    try:
        return entry.factory(**spec.param_dict(), **passed_context)
    except TypeError as error:
        detail = re.sub(r"^\w+\(\)\s*", "", str(error))
        raise ConfigurationError(
            f"bad parameters for {category} kind {spec.kind!r}: {detail} "
            f"(example params: {entry.example!r})"
        ) from None


def validate_kind(category: str, kind: str, *, context: str = "") -> None:
    """Raise :class:`ConfigurationError` unless ``kind`` is registered.

    The one kind-name validator every front door shares — serve
    schemas, the scenario CLI, and the ``repro check`` spec-lint pass
    all call this, so a typo'd kind produces the same message (and the
    same close-match hint) everywhere.  ``context`` prefixes the
    message with where the kind appeared (e.g. ``"scenario 'fft'"``).
    """
    _check_category(category)
    if kind in _REGISTRY[category]:
        return
    import difflib

    known = sorted(_REGISTRY[category])
    close = difflib.get_close_matches(kind, known, n=2)
    hint = f"; did you mean {', '.join(repr(k) for k in close)}?" if close else ""
    prefix = f"{context}: " if context else ""
    raise ConfigurationError(
        f"{prefix}unknown {category} kind {kind!r} "
        f"(registered: {', '.join(known) or 'none'}){hint}"
    )


def spec_components(spec) -> list[tuple[str, ComponentSpec]]:
    """The ``(category, component)`` pairs a scenario spec declares."""
    components = [(MAPPING, spec.mapping), (DRIVE, spec.drive)]
    if spec.workload is not None:
        components.append((WORKLOAD, spec.workload))
    if spec.program is not None:
        components.append((PROGRAM, spec.program))
    return components


def validate_spec_kinds(spec) -> None:
    """Validate every component kind one scenario spec names."""
    context = f"scenario {spec.name!r}" if spec.name else "scenario"
    for category, component in spec_components(spec):
        validate_kind(category, component.kind, context=context)


def parameter_table(category: str, kind: str) -> ParameterTable:
    """The resolved :class:`ParameterTable` of one registered kind."""
    return _entry(category, kind).parameters


def parameter_errors(category: str, component: ComponentSpec) -> list[str]:
    """Why a component's params do not fit its kind, one sentence per
    name, or an empty list when they fit.

    A name in the category's :data:`CONTEXT_NAMES` shadows context the
    scenario supplies.  Any other name the factory does not accept is
    unknown (with a hint listing the names it accepts that the spec
    leaves unset), unless the factory takes ``**kwargs``.  A parameter
    without a default that the spec omits is missing, and a value its
    :class:`ParameterRule` refuses is of the wrong type.
    """
    table = parameter_table(category, component.kind)
    provided = {name for name, _value in component.params}
    wrong = [
        (name, rule, value)
        for name, value in component.params
        if name in table.rules and not (rule := table.rules[name]).admits(value)
    ]
    if not wrong and table.required <= provided <= table.accepted:
        return []
    shadowed = sorted(provided & table.reserved)
    unknown = sorted(provided - table.accepted - table.reserved)
    if table.takes_kwargs:
        unknown = []
    missing = sorted(table.required - provided)
    if not (shadowed or unknown or missing or wrong):
        return []
    kind = f"{category} kind {component.kind!r}"
    close = sorted(table.accepted - provided)
    hint = f" (accepted: {', '.join(close)})" if close else ""
    return [
        *(
            f"parameter {name!r} shadows a reserved context name of "
            f"{kind}; the scenario layer supplies it"
            for name in shadowed
        ),
        *(f"unknown parameter {name!r} for {kind}{hint}" for name in unknown),
        *(f"missing required parameter {name!r} for {kind}" for name in missing),
        *(
            f"parameter {name!r} of {kind} must be {rule.noun}, got "
            f"{_refusal(rule, value)}"
            for name, rule, value in wrong
        ),
    ]


def _check_category(category: str) -> None:
    if category not in _REGISTRY:
        raise ConfigurationError(
            f"unknown registry category {category!r} "
            f"(known: {', '.join(CATEGORIES)})"
        )


def _entry(category: str, kind: str) -> _Entry:
    _check_category(category)
    try:
        return _REGISTRY[category][kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown {category} kind {kind!r} "
            f"(registered: {', '.join(sorted(_REGISTRY[category])) or 'none'})"
        ) from None
