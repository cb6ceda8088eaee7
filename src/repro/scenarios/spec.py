"""Serializable scenario specifications.

A :class:`ScenarioSpec` names one point of the paper's design space as
pure data — a mapping kind plus parameters, the memory geometry
``(t, q, q', address_bits)``, a workload and a drive mode — with every
value a JSON scalar (or a list of scalars).  Like the lab's
``JobSpec``, a spec is process-boundary-safe: it pickles trivially,
hashes canonically, round-trips through JSON byte-for-byte, and two
specs differing in any parameter are different design points (and,
downstream, different lab cache entries).

The component *kinds* are resolved against :mod:`repro.scenarios.registry`
only when a machine is actually built, so a spec can be authored, stored
and shipped without importing any simulator code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.canonical import canonical_json
from repro.errors import ConfigurationError

#: Scalar types a spec parameter may hold (plus lists/tuples of them).
SCALAR_TYPES = (bool, int, float, str, type(None))


def freeze_value(value, *, context: str = "parameter"):
    """Normalise one parameter value to a hashable, JSON-safe form.

    Scalars pass through; lists/tuples of scalars become tuples.
    Anything else (objects, dicts, nested lists) is rejected — specs
    carry data, never live components — and so is a float NaN or
    infinity, which Python's ``json`` reads but JSON cannot write.
    """
    if isinstance(value, SCALAR_TYPES):
        return _finite(value, context)
    if isinstance(value, (list, tuple)):
        items = []
        for item in value:
            if not isinstance(item, SCALAR_TYPES):
                raise ConfigurationError(
                    f"{context} lists may only hold scalars, got "
                    f"{type(item).__name__} in {value!r}"
                )
            items.append(_finite(item, context))
        return tuple(items)
    raise ConfigurationError(
        f"{context} values must be JSON scalars or lists of scalars, got "
        f"{type(value).__name__}: {value!r}"
    )


def _finite(value, context: str):
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(
            f"{context} values must be finite, got {value!r} (JSON has no "
            "NaN or Infinity)"
        )
    return value


def freeze_params(params: dict) -> tuple[tuple[str, object], ...]:
    """A params dict as a sorted, hashable tuple of pairs."""
    frozen = []
    for key in sorted(params):
        if not isinstance(key, str):
            raise ConfigurationError(
                f"parameter names must be strings, got {key!r}"
            )
        frozen.append((key, freeze_value(params[key], context=f"param {key!r}")))
    return tuple(frozen)


def _thaw_value(value):
    """JSON-facing form of a frozen value (tuples back to lists)."""
    if isinstance(value, tuple):
        return [_thaw_value(item) for item in value]
    return value


def set_path(data: dict, path: str, value) -> None:
    """Set the dotted-``path`` field (``"memory.t"``, ``"mapping.params.s"``,
    ``"name"``) of a spec's dict form in place; only a ``params`` section
    takes new keys."""
    *parents, leaf = path.split(".")
    cursor = data
    for part in parents:
        cursor = cursor.get(part) if isinstance(cursor, dict) else None
    if not isinstance(cursor, dict) or (
        leaf not in cursor and parents[-1:] != ["params"]
    ):
        raise ConfigurationError(
            f"scenario spec has no field at path {path!r}"
        )
    cursor[leaf] = value


@dataclass(frozen=True)
class ComponentSpec:
    """One pluggable component: a registered ``kind`` plus its params.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    the spec is hashable and its equality is order-insensitive; use
    :meth:`param_dict` for the dict view and :meth:`of` to construct
    from keyword arguments.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError(
                f"component kind must be a non-empty string, got {self.kind!r}"
            )

    @classmethod
    def of(cls, kind: str, **params) -> "ComponentSpec":
        return cls(kind, freeze_params(params))

    def param_dict(self) -> dict:
        return {key: value for key, value in self.params}

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": {key: _thaw_value(value) for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComponentSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"component spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"kind", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown component spec keys: {', '.join(sorted(unknown))}"
            )
        if "kind" not in data:
            raise ConfigurationError(f"component spec needs a 'kind': {data!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"component params must be an object, got {params!r}"
            )
        return cls(data["kind"], freeze_params(params))

    def describe(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class MemorySpec:
    """Memory geometry: service ratio exponent, buffers and ports.

    Attributes
    ----------
    t:
        Module service time is ``T = 2**t`` processor cycles.
    q:
        Input (waiting) slots per module.
    qp:
        Output slots per module (``q'`` in the paper).
    address_bits:
        Width of the machine address space.
    ports:
        ``k`` — address/result bus pairs (the Section 6 "several memory
        ports" outlook).  On the program path the access unit sustains
        one concurrent in-flight memory instruction per port.
    """

    t: int
    q: int = 1
    qp: int = 1
    address_bits: int = 32
    ports: int = 1

    def __post_init__(self) -> None:
        for name in ("t", "q", "qp", "address_bits", "ports"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"memory spec field {name!r} must be an integer, "
                    f"got {value!r}"
                )
        if self.t < 0:
            raise ConfigurationError(f"t must be >= 0, got {self.t}")
        if self.q < 1 or self.qp < 1:
            raise ConfigurationError(
                f"buffer depths must be >= 1, got q={self.q}, q'={self.qp}"
            )
        if self.address_bits < 1:
            raise ConfigurationError(
                f"address_bits must be >= 1, got {self.address_bits}"
            )
        if self.ports < 1:
            raise ConfigurationError(
                f"memory spec field 'ports' must be >= 1, got {self.ports}"
            )

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "q": self.q,
            "qp": self.qp,
            "address_bits": self.address_bits,
            "ports": self.ports,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemorySpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"memory spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"t", "q", "qp", "address_bits", "ports"}
        if unknown:
            raise ConfigurationError(
                f"unknown memory spec keys: {', '.join(sorted(unknown))}"
            )
        if "t" not in data:
            raise ConfigurationError("memory spec needs 't'")
        return cls(
            t=data["t"],
            q=data.get("q", 1),
            qp=data.get("qp", 1),
            address_bits=data.get("address_bits", 32),
            ports=data.get("ports", 1),
        )


#: Default drive: the access planner in ``auto`` mode.
DEFAULT_DRIVE = ComponentSpec("planner", (("mode", "auto"),))


@dataclass(frozen=True)
class ScenarioSpec:
    """One machine + workload design point, as pure data.

    ``workload`` may be None for machine-only specs (a design point
    the experiment runners and the CLI measure many vectors on, each
    through :func:`repro.scenarios.facade.simulate_access`);
    :func:`repro.scenarios.facade.simulate` requires a ``workload`` or a
    ``program``.  ``program`` names a whole vector program (an inline
    instruction list, assembler text, or a registered strip-mined
    kernel) executed by the decoupled machine; a spec declares either a
    workload or a program, never both.
    """

    mapping: ComponentSpec
    memory: MemorySpec
    workload: ComponentSpec | None = None
    drive: ComponentSpec = field(default=DEFAULT_DRIVE)
    name: str = ""
    program: ComponentSpec | None = None

    def __post_init__(self) -> None:
        if self.workload is not None and self.program is not None:
            raise ConfigurationError(
                "a scenario declares either a 'workload' or a 'program', "
                "not both"
            )

    def to_dict(self) -> dict:
        data: dict = {}
        if self.name:
            data["name"] = self.name
        data["mapping"] = self.mapping.to_dict()
        data["memory"] = self.memory.to_dict()
        if self.workload is not None:
            data["workload"] = self.workload.to_dict()
        if self.program is not None:
            data["program"] = self.program.to_dict()
        data["drive"] = self.drive.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "name", "mapping", "memory", "workload", "drive", "program"
        }
        if unknown:
            raise ConfigurationError(
                f"unknown scenario spec keys: {', '.join(sorted(unknown))}"
            )
        for required in ("mapping", "memory"):
            if required not in data:
                raise ConfigurationError(
                    f"scenario spec needs a {required!r} section"
                )
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ConfigurationError(f"scenario name must be a string: {name!r}")
        workload = data.get("workload")
        program = data.get("program")
        return cls(
            mapping=ComponentSpec.from_dict(data["mapping"]),
            memory=MemorySpec.from_dict(data["memory"]),
            workload=(
                ComponentSpec.from_dict(workload) if workload is not None else None
            ),
            drive=(
                ComponentSpec.from_dict(data["drive"])
                if "drive" in data
                else DEFAULT_DRIVE
            ),
            name=name,
            program=(
                ComponentSpec.from_dict(program) if program is not None else None
            ),
        )

    def to_json(self) -> str:
        """Canonical (sorted-key, minimal) JSON — the hashable identity."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(data)

    def replace(self, path: str, value) -> "ScenarioSpec":
        """A copy with the dotted-``path`` field set to ``value``
        (paths as in :func:`set_path`)."""
        data = self.to_dict()
        set_path(data, path, value)
        return ScenarioSpec.from_dict(data)

    def describe(self) -> str:
        parts = [
            f"mapping={self.mapping.describe()}",
            f"T=2**{self.memory.t}",
            f"q={self.memory.q}",
            f"q'={self.memory.qp}",
        ]
        if self.memory.ports != 1:
            parts.append(f"ports={self.memory.ports}")
        if self.workload is not None:
            parts.append(f"workload={self.workload.describe()}")
        if self.program is not None:
            parts.append(f"program={self.program.describe()}")
        parts.append(f"drive={self.drive.describe()}")
        prefix = f"{self.name}: " if self.name else ""
        return prefix + ", ".join(parts)
