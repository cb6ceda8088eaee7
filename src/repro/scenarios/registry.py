"""Kind registries: the string -> factory tables behind scenario specs.

Four categories, one registry each:

* ``"mapping"`` — address mappings (module-number component ``F``);
* ``"workload"`` — access streams (strided, indexed, kernel);
* ``"drive"`` — how requests reach the memory (planner, Figure 6
  engine, the decoupled machine);
* ``"program"`` — whole vector programs for the decoupled machine
  (inline instruction lists, assembler text, or named strip-mined
  kernels such as ``daxpy``).

A factory takes the spec's parameters as keyword arguments (plus
category-specific context such as ``address_bits``) and returns the
live component.  Unknown kinds and unknown/invalid parameters raise
:class:`~repro.errors.ConfigurationError` with the known alternatives
spelled out, so a typo in a JSON spec fails with a readable message
instead of a stack trace from deep inside a constructor.
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

    ``context`` carries cross-layer inputs a factory may need (the
    memory's ``address_bits`` for mappings, the planner for drives).
    Factories declare the context they use; the rest is filtered out
    here so adding context never breaks existing factories.
    """
    entry = _entry(category, spec.kind)
    params = spec.param_dict()
    overlap = set(params) & set(context)
    if overlap:
        raise ConfigurationError(
            f"{category} kind {spec.kind!r} params shadow reserved context "
            f"names: {', '.join(sorted(overlap))}"
        )
    accepted = entry.signature().parameters
    takes_kwargs = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in accepted.values()
    )
    passed_context = {
        key: value
        for key, value in context.items()
        if takes_kwargs or key in accepted
    }
    try:
        return entry.factory(**params, **passed_context)
    except TypeError as error:
        # A factory signature mismatch is a spec problem (unknown or
        # missing parameter), not a bug — report it as configuration.
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


def factory_parameters(category: str, kind: str) -> tuple[frozenset[str], frozenset[str]] | None:
    """The parameter names a kind's factory accepts and requires.

    Returns ``(accepted, required)`` name sets, or ``None`` when the
    factory takes ``**kwargs`` (every name is acceptable).  Context
    names (``address_bits``, ``register_length``) are included in
    ``accepted`` — callers that lint user-supplied params should treat
    them as reserved, since :func:`build` rejects specs that shadow
    context.
    """
    parameters = _entry(category, kind).signature().parameters
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    ):
        return None
    accepted = frozenset(parameters)
    required = frozenset(
        name
        for name, parameter in parameters.items()
        if parameter.default is inspect.Parameter.empty
        and parameter.kind
        not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    )
    return accepted, required


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
