#!/usr/bin/env python3
"""Stride survey: which design serves which strides conflict-free?

Sweeps every stride 1..40 plus the strides a realistic dense-kernel mix
generates, over three memory designs:

* conventional low-order interleaving, ordered access (the baseline);
* the paper's matched design (M = T = 8, Eq. 1, out-of-order);
* the paper's unmatched design (M = 64, Eq. 2, out-of-order).

Prints per-stride latency and the population efficiency of each design —
the Section 5-B comparison played out on concrete strides.

Run:  python examples/stride_survey.py
"""

from repro import AccessPlanner, VectorAccess
from repro.mappings import LowOrderInterleaved
from repro.memory import MemoryConfig, MemorySystem
from repro.report import render_table
from repro.workloads import realistic_stride_population

LENGTH = 128


def build_designs():
    """(name, planner, system) for the three competing designs."""
    designs = []

    conventional = MemoryConfig(LowOrderInterleaved(3), 3, input_capacity=4)
    designs.append(
        (
            "interleaved+ordered",
            AccessPlanner(conventional.mapping, 3),
            MemorySystem(conventional),
            "ordered",
        )
    )

    matched = MemoryConfig.matched(t=3, s=4)
    designs.append(
        (
            "matched M=8 (paper)",
            AccessPlanner(matched.mapping, 3),
            MemorySystem(matched),
            "auto",
        )
    )

    unmatched = MemoryConfig.unmatched(t=3, s=4, y=9)
    designs.append(
        (
            "unmatched M=64 (paper)",
            AccessPlanner(unmatched.mapping, 3),
            MemorySystem(unmatched),
            "auto",
        )
    )
    return designs


def survey_small_strides(designs) -> None:
    print(f"latency of a {LENGTH}-element access per stride "
          f"(minimum = {8 + LENGTH + 1}):\n")
    rows = []
    for stride in range(1, 41):
        vector = VectorAccess(1000, stride, LENGTH)
        row = [stride, vector.family]
        for _name, planner, system, mode in designs:
            run = system.run_plan(planner.plan(vector, mode=mode))
            row.append(run.latency)
        rows.append(row)
    headers = ["stride", "family"] + [name for name, *_ in designs]
    print(render_table(headers, rows))


def survey_realistic_mix(designs) -> None:
    print("\nrealistic kernel strides (500x500 row-major matrix):\n")
    rows = []
    population = realistic_stride_population(matrix_dimension=500)
    for item in population:
        vector = VectorAccess(4096, item.stride, LENGTH)
        row = [item.source, item.stride, item.family]
        for _name, planner, system, mode in designs:
            run = system.run_plan(planner.plan(vector, mode=mode))
            row.append("yes" if run.conflict_free else f"{run.latency}cy")
        rows.append(row)
    headers = ["pattern", "stride", "family"] + [
        name for name, *_ in designs
    ]
    print(render_table(headers, rows))

    print("\npopulation efficiency (elements per issue cycle):")
    for name, planner, system, mode in designs:
        results = [
            system.run_plan(
                planner.plan(VectorAccess(4096, item.stride, LENGTH), mode=mode)
            )
            for item in population
        ]
        elements = sum(run.element_count for run in results)
        issue_cycles = sum(run.latency - 8 - 1 for run in results)
        conflict_free = sum(run.conflict_free for run in results)
        print(
            f"  {name:24s} efficiency={elements / issue_cycles:.3f} "
            f"conflict-free {conflict_free}/{len(results)} accesses"
        )


def main() -> None:
    designs = build_designs()
    survey_small_strides(designs)
    survey_realistic_mix(designs)


if __name__ == "__main__":
    main()
