"""Canonical JSON, the one serialisation behind every hash in the repo.

Scenario specs (:mod:`repro.scenarios.spec`) and the lab's config
hashes and stored bodies (:mod:`repro.lab.hashing`) both re-export
:func:`canonical_json` from here.  The module imports only the standard
library, so the lab commands that read a store never load the scenario
layer, and the spec layer never imports the lab.
"""

from __future__ import annotations

import json


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    )
