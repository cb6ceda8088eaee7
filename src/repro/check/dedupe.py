"""Grid dedupe preview: duplicate design points flagged pre-submit.

The comparison ignores ``name``, which the lab's job id and cache key
do NOT: two points identical except for their names each simulate
separately, while byte-identical repeats share one job id and run once.
Either way the batch reads as more coverage than it is (and points that
differ only by name burn quota re-measuring one machine), so ``DD401``
*warn* names each group of identical points before anything is queued.

Identical means equal canonical JSON without the name.  Only points
that could be identical are encoded: the specs are first grouped by
their frozen data fields, whose Python equality is coarser than
canonical JSON (it merges ``1``, ``1.0`` and ``True``, and ``0.0`` and
``-0.0``), so a batch of distinct points encodes nothing.  Specs built
through :meth:`~repro.scenarios.spec.ComponentSpec.of`, ``from_dict``
or a grid hold frozen params; a batch holding one built by hand with a
list in its params is compared point by point.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec, canonical_json

from repro.check.findings import Finding

__all__ = ["dedupe_findings"]


def dedupe_findings(
    specs: list[tuple[ScenarioSpec, str]]
) -> list[Finding]:
    """``DD401`` findings over ``(spec, location)`` pairs, in the order
    of each group's first point."""
    candidates: dict[tuple[object, ...], list[int]] = {}
    try:
        for index, (spec, _location) in enumerate(specs):
            fields = (spec.mapping, spec.memory, spec.workload, spec.program, spec.drive)
            candidates.setdefault(fields, []).append(index)
    except TypeError:
        # A spec built by hand with a list in its params does not hash,
        # and a list equals no frozen tuple: compare every point.
        candidates = {(): list(range(len(specs)))}
    groups: dict[str, list[int]] = {}
    for indices in candidates.values():
        if len(indices) < 2:
            continue
        for index in indices:
            body = canonical_json(
                {
                    key: value
                    for key, value in specs[index][0].to_dict().items()
                    if key != "name"
                }
            )
            groups.setdefault(body, []).append(index)
    findings: list[Finding] = []
    # Groups are disjoint, so sorting orders them by their first point.
    for members in sorted(groups.values()):
        if len(members) < 2:
            continue
        locations = [specs[index][1] for index in members]
        # Points with the same name too share a job id: they run once.
        runs = len({specs[index][0].name for index in members})
        times = "once" if runs == 1 else f"{runs} times"
        effect = (
            "each simulates separately but measures the same machine"
            if runs == len(members)
            else f"repeats run once, so the machine simulates {times}"
        )
        findings.append(
            Finding(
                "DD401",
                "warn",
                locations[0],
                f"{len(members)} design points are identical up to "
                f"their names ({', '.join(locations)}); {effect}",
            )
        )
    return findings
