"""Canonical config hashing and JSON-safe cell encoding.

Two jobs are "the same experiment" exactly when their canonical config
JSON hashes equal (``canonical_json`` is the spec layer's, re-exported
here), so the hash doubles as the result's address: the
key of its row in ``.repro-lab/index.sqlite``, which is also the cache
key.  The hash covers the job id, kind, parameters, the package
version and a fingerprint of every Python source the jobs can execute
(see :func:`repro.lab.jobs.source_fingerprint`) — editing the
simulator or a bench invalidates every cached result, the right
default for a simulator whose cycle counts are the product under
test.

Table cells are almost always JSON primitives (int, float, bool, str);
the encoder handles the two structured types experiments legitimately
produce — ``fractions.Fraction`` and tuples — with explicit tags, and
refuses anything else rather than silently stringifying it (a silent
``str()`` would survive the round trip with a different type and break
byte-identical re-rendering).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from repro.errors import ReproError
from repro.scenarios.spec import canonical_json


class ArtifactCodingError(ReproError):
    """A table cell cannot be round-tripped through JSON faithfully."""


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON of a job config."""
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()


def encode_cell(value):
    """One table cell to a JSON-safe value (tagged for Fraction/tuple)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ArtifactCodingError(f"non-finite cell value {value!r}")
        return value
    if isinstance(value, Fraction):
        return {"__fraction__": [value.numerator, value.denominator]}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_cell(item) for item in value]}
    raise ArtifactCodingError(
        f"cell of type {type(value).__name__} is not JSON-round-trippable: "
        f"{value!r}"
    )


def decode_cell(value):
    """Inverse of :func:`encode_cell`."""
    if isinstance(value, dict):
        if "__fraction__" in value:
            numerator, denominator = value["__fraction__"]
            return Fraction(numerator, denominator)
        if "__tuple__" in value:
            return tuple(decode_cell(item) for item in value["__tuple__"])
        raise ArtifactCodingError(f"unknown cell tag in {value!r}")
    return value


def encode_rows(rows) -> list[list]:
    """Every cell of a table's rows through :func:`encode_cell`."""
    return [[encode_cell(value) for value in row] for row in rows]


def decode_rows(rows) -> list[list]:
    """Inverse of :func:`encode_rows`."""
    return [[decode_cell(value) for value in row] for row in rows]
