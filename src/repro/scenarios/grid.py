"""Scenario grids: declarative parameter sweeps over spec fields.

A :class:`ScenarioGrid` is a base :class:`~repro.scenarios.spec.ScenarioSpec`
plus axes — dotted field paths each with a list of values — that expands
to the cartesian product of design points, every one a full standalone
spec.  Like the spec itself the grid is pure data: it round-trips
through JSON, so a whole experiment grid can live in one committed file
and be fanned out by the lab (each point hashing to its own cache
entry).

Axis paths address the spec's dict form: ``"memory.t"``,
``"mapping.params.s"``, ``"workload.params.stride"``,
``"program.params.n"``.  Expansion order
is deterministic: axes are kept sorted by path (so the order survives
the canonical-JSON round trip) and later axes vary fastest, like
nested loops.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ScenarioSpec,
    canonical_json,
    freeze_value,
    set_path,
)


@dataclass(frozen=True)
class ScenarioGrid:
    """A base spec plus ``(path, values)`` axes to sweep.

    Each point is built in one step: the axis values are set on one copy
    of the base's dict (:func:`set_path`), then the decorated name, then
    one :meth:`ScenarioSpec.from_dict`.
    """

    base: ScenarioSpec
    axes: tuple[tuple[str, tuple[object, ...]], ...]

    def __post_init__(self) -> None:
        # Canonical axis order (sorted by path): expansion order must
        # survive the JSON round trip, and canonical JSON sorts keys.
        object.__setattr__(
            self, "axes", tuple(sorted(self.axes, key=lambda axis: axis[0]))
        )
        seen = set()
        for path, values in self.axes:
            if not isinstance(path, str) or not path:
                raise ConfigurationError(f"axis path must be a string: {path!r}")
            if path in seen:
                raise ConfigurationError(f"duplicate grid axis {path!r}")
            seen.add(path)
            if not values:
                raise ConfigurationError(f"grid axis {path!r} has no values")
        # Fail fast on a path that does not exist in the base spec (a
        # typo would otherwise silently sweep nothing) or a bad value.
        if self.axes:
            first_point = next(iter(self.points()))
            self._apply(first_point)

    @classmethod
    def of(cls, base: ScenarioSpec, **axes) -> "ScenarioGrid":
        """Grid from keyword axes (dots spelled as ``__``)."""
        return cls(
            base,
            tuple(
                (path.replace("__", "."), tuple(values))
                for path, values in axes.items()
            ),
        )

    @property
    def size(self) -> int:
        count = 1
        for _path, values in self.axes:
            count *= len(values)
        return count

    def points(self):
        """Each design point's ``(path, value)`` pairs, in expansion
        order — what :meth:`expand` applies to the base spec."""
        paths = [path for path, _values in self.axes]
        for combination in itertools.product(
            *(values for _path, values in self.axes)
        ):
            yield list(zip(paths, combination))

    def _apply(self, point: list[tuple[str, object]]) -> ScenarioSpec:
        data = self.base.to_dict()
        for path, value in point:
            set_path(data, path, value)
        name = data.get("name")
        if name and isinstance(name, str):
            suffix = ",".join(
                f"{path.rsplit('.', 1)[-1]}={value}" for path, value in point
            )
            data["name"] = f"{name}[{suffix}]"
        return ScenarioSpec.from_dict(data)

    def expand(self) -> list[ScenarioSpec]:
        """Every design point of the grid, in deterministic order."""
        if not self.axes:
            return [self.base]
        return [self._apply(point) for point in self.points()]

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "axes": {path: list(values) for path, values in self.axes},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioGrid":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario grid must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"base", "axes"}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario grid keys: {', '.join(sorted(unknown))}"
            )
        if "base" not in data:
            raise ConfigurationError("scenario grid needs a 'base' spec")
        axes_data = data.get("axes", {})
        if not isinstance(axes_data, dict):
            raise ConfigurationError(
                f"grid axes must be an object of path -> values, got "
                f"{axes_data!r}"
            )
        axes = tuple(
            (
                path,
                freeze_value(values, context=f"axis {path!r}")
                if isinstance(values, (list, tuple))
                else (_bad_axis(path, values)),
            )
            for path, values in axes_data.items()
        )
        return cls(ScenarioSpec.from_dict(data["base"]), axes)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioGrid":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid grid JSON: {error}") from None
        return cls.from_dict(data)

    def describe(self) -> str:
        axes = ", ".join(
            f"{path} in {list(values)}" for path, values in self.axes
        )
        return f"grid of {self.size} scenarios ({axes or 'no axes'})"


def _bad_axis(path: str, values) -> tuple:
    raise ConfigurationError(
        f"grid axis {path!r} must list its values, got {values!r}"
    )


def load_grid(text: str) -> ScenarioGrid:
    """Parse a JSON document that must be a single scenario grid.

    ``repro lab sweep`` feeds grid files through this: unlike
    :func:`load_scenarios` it keeps the axes, which become the sweep
    table's columns.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid grid JSON: {error}") from None
    if not isinstance(data, dict) or "base" not in data:
        raise ConfigurationError(
            "a sweep needs a grid file — an object with 'base' and 'axes' "
            "sections (got a plain spec or list; run it with "
            "`repro scenario run` instead)"
        )
    return ScenarioGrid.from_dict(data)


def load_scenarios(text: str) -> list[ScenarioSpec]:
    """Parse a JSON document into scenario specs.

    Accepts three shapes: a single spec object, a grid object
    (``{"base": ..., "axes": ...}``), or a JSON array mixing either.
    This is what ``repro scenario run`` feeds files through.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid scenario JSON: {error}") from None
    documents = data if isinstance(data, list) else [data]
    specs: list[ScenarioSpec] = []
    for document in documents:
        if isinstance(document, dict) and "base" in document:
            specs.extend(ScenarioGrid.from_dict(document).expand())
        else:
            specs.append(ScenarioSpec.from_dict(document))
    return specs
