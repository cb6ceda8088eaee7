"""Grid dedupe preview: duplicate design points flagged pre-submit.

The comparison ignores ``name``, which the lab's job id and cache key
do NOT: two points identical except for their names each simulate
separately, while byte-identical repeats share one job id and run once.
Either way the batch reads as more coverage than it is (and points that
differ only by name burn quota re-measuring one machine), so ``DD401``
*warn* names each group of identical points before anything is queued.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec, canonical_json

from repro.check.findings import Finding

__all__ = ["dedupe_findings"]


def dedupe_findings(
    specs: list[tuple[ScenarioSpec, str]]
) -> list[Finding]:
    """``DD401`` findings over ``(spec, location)`` pairs."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for spec, location in specs:
        body = canonical_json(
            {
                key: value
                for key, value in spec.to_dict().items()
                if key != "name"
            }
        )
        groups.setdefault(body, []).append((spec.name, location))
    findings = []
    for members in groups.values():
        if len(members) < 2:
            continue
        locations = [location for _name, location in members]
        # Points with the same name too share a job id: they run once.
        runs = len({name for name, _location in members})
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
