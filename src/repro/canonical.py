"""Canonical JSON, the one serialisation behind every hash in the repo.

Scenario specs (:mod:`repro.scenarios.spec`) and the lab's config
hashes and stored bodies (:mod:`repro.lab.hashing`) both re-export
:func:`canonical_json` from here.  The module imports only the standard
library, so the lab commands that read a store never load the scenario
layer, and the spec layer never imports the lab.

Every call encodes through one module-level :class:`json.JSONEncoder`:
``json.dumps`` with these keywords would build a new encoder per call.
The encoder is safe to share across threads (serve's handler threads
do), since :meth:`~json.JSONEncoder.encode` keeps all of its state in
the call and never writes to the encoder.
"""

from __future__ import annotations

import json

_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    allow_nan=False,
    ensure_ascii=True,
)


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return _ENCODER.encode(value)
