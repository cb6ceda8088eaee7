"""Design-space sweeps: windows, fractions and efficiencies over (lambda, t).

The paper evaluates two design points (L=128 with T=8, matched and
unmatched).  These helpers sweep the surrounding space so the bench
`bench_design_space.py` can show how the window, the covered stride
fraction and the efficiency scale with register length and memory speed
ratio — and where the proposed scheme's advantage over ordered access
grows or shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.tradeoffs import (
    matched_design_point,
    ordered_design_point,
    unmatched_design_point,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DesignRow:
    """One (lambda, t) point of the design-space sweep."""

    lambda_exponent: int
    t: int
    matched_window: int  # families, matched out-of-order
    unmatched_window: int  # families, unmatched out-of-order
    ordered_matched_window: int  # families, ordered s=0 matched
    matched_fraction: Fraction
    unmatched_fraction: Fraction
    matched_efficiency: Fraction
    unmatched_efficiency: Fraction
    ordered_matched_efficiency: Fraction

    @property
    def vector_length(self) -> int:
        return 1 << self.lambda_exponent

    @property
    def advantage(self) -> float:
        """Proposed-matched over ordered-matched efficiency ratio."""
        return float(self.matched_efficiency / self.ordered_matched_efficiency)


def design_row(lambda_exponent: int, t: int) -> DesignRow:
    """Closed-form design summary for one (lambda, t): the Section 5-E
    matched, unmatched and ordered-matched (``m = t``) design points."""
    matched = matched_design_point(lambda_exponent, t)
    unmatched = unmatched_design_point(lambda_exponent, t)
    ordered = ordered_design_point(t, t)
    return DesignRow(
        lambda_exponent=lambda_exponent,
        t=t,
        matched_window=matched.window_families,
        unmatched_window=unmatched.window_families,
        ordered_matched_window=ordered.window_families,
        matched_fraction=matched.stride_fraction,
        unmatched_fraction=unmatched.stride_fraction,
        matched_efficiency=matched.efficiency,
        unmatched_efficiency=unmatched.efficiency,
        ordered_matched_efficiency=ordered.efficiency,
    )


def sweep_lambda(t: int, lambda_range: range) -> list[DesignRow]:
    """Fix the memory speed ratio, sweep the register length."""
    return [design_row(lam, t) for lam in lambda_range if lam >= t]


def sweep_t(lambda_exponent: int, t_range: range) -> list[DesignRow]:
    """Fix the register length, sweep the memory speed ratio."""
    return [
        design_row(lambda_exponent, t)
        for t in t_range
        if 0 <= t <= lambda_exponent
    ]


@dataclass(frozen=True)
class SweepSpec:
    """A batchable, hashable design-space sweep.

    ``axis`` selects which exponent varies (``"lambda"`` or ``"t"``)
    while ``fixed`` pins the other one; ``start``/``stop`` bound the
    varying exponent like ``range`` (stop exclusive).  Being a frozen
    dataclass of ints and strings, a spec can be hashed into a
    content-addressed cache key and shipped to a worker process, which
    is how ``repro.lab`` schedules sweeps as jobs.
    """

    axis: str
    fixed: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.axis not in ("lambda", "t"):
            raise ConfigurationError(
                f"sweep axis must be 'lambda' or 't', got {self.axis!r}"
            )
        if self.start >= self.stop:
            raise ConfigurationError(
                f"empty sweep range [{self.start}, {self.stop})"
            )
        # The varying exponent is further filtered against the fixed one
        # (lambda >= t >= 0 always); reject specs whose feasible
        # sub-range is empty, which would otherwise cache a silently
        # empty table.
        if self.fixed < 0:
            raise ConfigurationError(
                f"fixed exponent must be non-negative, got {self.fixed}"
            )
        if self.axis == "lambda" and self.stop - 1 < max(self.start, self.fixed):
            raise ConfigurationError(
                f"no lambda in [{self.start}, {self.stop}) is >= t={self.fixed}"
            )
        if self.axis == "t" and max(self.start, 0) > min(
            self.stop - 1, self.fixed
        ):
            raise ConfigurationError(
                f"no t in [{self.start}, {self.stop}) lies in "
                f"[0, lambda={self.fixed}]"
            )

    def design_rows(self) -> list[DesignRow]:
        if self.axis == "lambda":
            return sweep_lambda(self.fixed, range(self.start, self.stop))
        return sweep_t(self.fixed, range(self.start, self.stop))

    def table(self) -> tuple[list[str], list[list]]:
        """Headers plus primitive-celled rows, ready for rendering."""
        headers = [
            "lambda",
            "L",
            "t",
            "matched window",
            "unmatched window",
            "matched f",
            "unmatched f",
            "matched eta",
            "unmatched eta",
            "ordered eta",
            "advantage",
        ]
        rows = [
            [
                row.lambda_exponent,
                row.vector_length,
                row.t,
                row.matched_window,
                row.unmatched_window,
                float(row.matched_fraction),
                float(row.unmatched_fraction),
                float(row.matched_efficiency),
                float(row.unmatched_efficiency),
                float(row.ordered_matched_efficiency),
                row.advantage,
            ]
            for row in self.design_rows()
        ]
        return headers, rows

    def describe(self) -> str:
        other = "t" if self.axis == "lambda" else "lambda"
        return (
            f"sweep {self.axis} in [{self.start}, {self.stop}) "
            f"with {other}={self.fixed}"
        )


#: The sweeps `bench_design_space.py` reports, as declarative specs.
STANDARD_SWEEPS: tuple[SweepSpec, ...] = (
    SweepSpec(axis="lambda", fixed=3, start=3, stop=11),
    SweepSpec(axis="t", fixed=7, start=0, stop=8),
)


def efficiency_crossover_t(lambda_exponent: int) -> int | None:
    """Smallest ``t`` at which the proposed matched scheme's efficiency
    drops below 0.9 — i.e. where the register stops being long enough to
    hide the memory's slowness.  None if it never drops within range."""
    for t in range(0, lambda_exponent + 1):
        row = design_row(lambda_exponent, t)
        if float(row.matched_efficiency) < 0.9:
            return t
    return None
