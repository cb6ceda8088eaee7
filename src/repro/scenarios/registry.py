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

:func:`parameter_errors` is the one statement of which parameter names
a kind accepts, requires and reserves for context: ``repro check``
reports its sentences as ``SL302``, and :func:`build` raises the first
of them when a factory call fails on a name.
"""

from __future__ import annotations

import inspect
import re
from typing import Callable

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


class _Entry:
    """One registered kind: its factory plus a runnable example."""

    def __init__(self, factory: Callable, example: dict, summary: str):
        self.factory = factory
        self.example = example
        self.summary = summary
        self._signature: inspect.Signature | None = None

    def signature(self) -> inspect.Signature:
        """The factory's signature, resolved once.

        ``inspect.signature`` is surprisingly expensive and factories
        are immutable after registration, so every ``build`` call (a
        grid sweep makes thousands) shares one resolution.
        """
        if self._signature is None:
            self._signature = inspect.signature(self.factory)
        return self._signature

    def takes_kwargs(self) -> bool:
        """Whether the factory takes ``**kwargs`` (any name goes)."""
        return any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in self.signature().parameters.values()
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
            factory, dict(example), summary or (factory.__doc__ or "").strip()
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
    it uses; the rest is filtered out here.  A factory call that raises
    :class:`TypeError` is refused with the first of
    :func:`parameter_errors`' sentences, or, when every name fits, as
    ``bad parameters`` with the kind's example.
    """
    entry = _entry(category, spec.kind)
    accepted = entry.signature().parameters
    takes_kwargs = entry.takes_kwargs()
    passed_context = {
        key: value
        for key, value in context.items()
        if takes_kwargs or key in accepted
    }
    try:
        return entry.factory(**spec.param_dict(), **passed_context)
    except TypeError as error:
        problems = parameter_errors(category, spec)
        if problems:
            raise ConfigurationError(problems[0]) from None
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


def parameter_errors(category: str, component: ComponentSpec) -> list[str]:
    """Why a component's parameter names do not fit its kind, one
    sentence per name, or an empty list when they fit.

    A name in the category's :data:`CONTEXT_NAMES` shadows context the
    scenario supplies.  Any other name the factory does not accept is
    unknown (with a hint listing the names it accepts that the spec
    leaves unset), unless the factory takes ``**kwargs``.  A parameter
    without a default that the spec omits is missing.
    """
    entry = _entry(category, component.kind)
    parameters = entry.signature().parameters
    reserved = CONTEXT_NAMES.get(category, frozenset())
    provided = component.param_dict().keys()
    shadowed = sorted(provided & reserved)
    unknown = sorted(provided - parameters.keys() - reserved)
    if unknown and entry.takes_kwargs():
        unknown = []
    missing = sorted(
        name
        for name in parameters.keys() - provided - reserved
        if parameters[name].default is inspect.Parameter.empty
        and parameters[name].kind
        not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    )
    if not (shadowed or unknown or missing):
        return []
    kind = f"{category} kind {component.kind!r}"
    close = sorted(parameters.keys() - reserved - provided)
    hint = f" (accepted: {', '.join(close)})" if close else ""
    return [
        *(
            f"parameter {name!r} shadows a reserved context name of "
            f"{kind}; the scenario layer supplies it"
            for name in shadowed
        ),
        *(f"unknown parameter {name!r} for {kind}{hint}" for name in unknown),
        *(f"missing required parameter {name!r} for {kind}" for name in missing),
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
