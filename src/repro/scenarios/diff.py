"""Metric-by-metric diffing of two scenario design points.

``repro scenario diff a.json b.json`` simulates one spec per file and
compares the two :meth:`ScenarioResult.to_dict` records — the scenario
analogue of ``repro lab diff``, but across *design points* rather than
recorded runs.  Each metric that differs is classified by the direction
:data:`repro.result_schema.DIRECTIONS` gives it:

* **regression** — candidate ``b`` is worse than baseline ``a``: more
  of a lower-is-better metric (``latency``, ``excess_latency``,
  ``issue_stalls``, ``extra:total_cycles``...), less of a
  higher-is-better one (``efficiency``, ``extra:chaining_speedup``...),
  or a flag such as ``conflict_free`` that flipped true -> false;
* **improvement** — the same metrics moving the other way;
* **change** — anything else that differs: direction-free metrics (the
  ``minimum_latency`` bound, schemes, timelines, module business,
  informational extras) and values of mismatched types.

Regressions drive the CLI's non-zero exit status, so two committed
specs can gate CI on "the new design point is no worse".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.result_schema import DIRECTIONS, bare_metric, extra_metric


@dataclass(frozen=True)
class MetricDiff:
    """One metric that differs between the two design points."""

    metric: str
    a: object
    b: object
    severity: str  # "regression" | "improvement" | "change"

    def describe(self) -> str:
        detail = f"{self.metric}: {_show(self.a)} -> {_show(self.b)}"
        if isinstance(self.a, (int, float)) and isinstance(
            self.b, (int, float)
        ) and not isinstance(self.a, bool) and not isinstance(self.b, bool):
            delta = self.b - self.a
            detail += f" ({delta:+g})"
        return detail


@dataclass
class ScenarioDiff:
    """Everything that differs between two simulated design points."""

    label_a: str
    label_b: str
    compared: int = 0
    identical: int = 0
    entries: list[MetricDiff] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDiff]:
        return [e for e in self.entries if e.severity == "regression"]

    @property
    def improvements(self) -> list[MetricDiff]:
        return [e for e in self.entries if e.severity == "improvement"]

    @property
    def changes(self) -> list[MetricDiff]:
        return [e for e in self.entries if e.severity == "change"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)


def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return f"<{len(value)} entries>"
    return str(value)


def _flatten(record: dict) -> dict:
    """One ``ScenarioResult.to_dict`` record as a flat metric mapping."""
    flat: dict = {}
    for key, value in record.items():
        if key == "extras":
            for extra_key, extra_value in value.items():
                flat[extra_metric(extra_key)] = extra_value
        else:
            flat[key] = value
    return flat


def _comparable(a, b) -> bool:
    """Two flags, or two numbers that are not flags."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    return isinstance(a, (int, float)) and isinstance(b, (int, float))


def _classify(metric: str, a, b) -> str:
    direction = DIRECTIONS.get(bare_metric(metric))
    if direction is None or not _comparable(a, b):
        return "change"
    worse = b > a if direction == "lower" else b < a
    return "regression" if worse else "improvement"


def diff_results(
    record_a: dict,
    record_b: dict,
    *,
    label_a: str = "a",
    label_b: str = "b",
) -> ScenarioDiff:
    """Compare two ``ScenarioResult.to_dict`` records metric by metric.

    Metrics present on only one side are reported as changes (a
    workload point diffed against a program point has different
    extras); shared metrics are classified by direction.
    """
    flat_a = _flatten(record_a)
    flat_b = _flatten(record_b)
    diff = ScenarioDiff(label_a=label_a, label_b=label_b)
    for metric in sorted(flat_a.keys() | flat_b.keys()):
        if metric == "name":
            continue  # design points are allowed to be named differently
        in_a, in_b = metric in flat_a, metric in flat_b
        diff.compared += 1
        if in_a and in_b:
            a, b = flat_a[metric], flat_b[metric]
            if a == b:
                diff.identical += 1
                continue
            diff.entries.append(
                MetricDiff(metric, a, b, _classify(metric, a, b))
            )
        else:
            diff.entries.append(
                MetricDiff(
                    metric,
                    flat_a.get(metric, "<absent>"),
                    flat_b.get(metric, "<absent>"),
                    "change",
                )
            )
    return diff


def render_scenario_diff(diff: ScenarioDiff) -> str:
    """Human-readable diff, regressions first."""
    lines = [
        f"scenario diff: {diff.label_a} -> {diff.label_b}",
        f"compared {diff.compared} metric(s); {diff.identical} identical",
    ]
    for label, entries in (
        ("REGRESSION", diff.regressions),
        ("improvement", diff.improvements),
        ("change", diff.changes),
    ):
        for entry in entries:
            lines.append(f"[{label}] {entry.describe()}")
    if not diff.entries:
        lines.append("design points are metric-identical")
    elif not diff.has_regressions:
        lines.append("no regressions")
    else:
        lines.append(f"{len(diff.regressions)} regression(s)")
    return "\n".join(lines)
