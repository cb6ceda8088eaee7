#!/usr/bin/env python3
"""Several vectors sharing the memory: the paper's Section 6 outlook.

The paper closes by deferring "several vectors accessed simultaneously"
to future work.  This example quantifies why that is a separate problem
and what resources fix it:

1. two individually conflict-free streams through ONE address bus
   interleave and shear each other's module timing (conflicts reappear);
2. a second PORT restores throughput only on the module-rich unmatched
   memory, and only for streams whose module footprints are disjoint —
   bandwidth must exist in the modules, not just the buses.

Run:  python examples/multistream_ports.py
"""

from dataclasses import replace

from repro import AccessPlanner, VectorAccess
from repro.memory import MemoryConfig, MemoryKernel, MemorySystem
from repro.report import bar_chart

LENGTH = 64


def main() -> None:
    matched = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    unmatched = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
    matched_planner = AccessPlanner(matched.mapping, 3)
    unmatched_planner = AccessPlanner(unmatched.mapping, 3)

    def stream_pair(planner):
        # Two stride-16 vectors; bases one 2**y block apart so they sit
        # in different sections of the unmatched memory.
        return [
            planner.plan(VectorAccess(0, 16, LENGTH)).request_stream(),
            planner.plan(VectorAccess(1 << 9, 16, LENGTH)).request_stream(),
        ]

    solo = MemorySystem(unmatched).run_plan(
        unmatched_planner.plan(VectorAccess(0, 16, LENGTH))
    )
    print(
        f"one stream alone: {solo.latency} cycles "
        f"(minimum {8 + LENGTH + 1}, conflict-free={solo.conflict_free})\n"
    )

    # Stream i issues on port i % ports; the port count is the config's.
    scenarios = [
        (name, MemoryKernel(config).run(stream_pair(planner)))
        for name, config, planner in (
            ("matched M=8, shared bus", matched, matched_planner),
            ("unmatched M=64, shared bus", unmatched, unmatched_planner),
            ("matched M=8, two ports", replace(matched, ports=2),
             matched_planner),
            ("unmatched M=64, two ports", replace(unmatched, ports=2),
             unmatched_planner),
        )
    ]

    print(f"two {LENGTH}-element stride-16 streams, total elapsed cycles:\n")
    labels = [name for name, _ in scenarios]
    totals = [float(result.total_cycles) for _, result in scenarios]
    print(bar_chart(labels, totals, width=44, unit=" cycles"))

    print("\nper-scenario detail:")
    for name, result in scenarios:
        waits = sum(stream.wait_count for stream in result.streams)
        print(
            f"  {name:28s} total={result.total_cycles:4d}  "
            f"module-waits={waits:3d}  "
            f"bus-util={result.bus_utilisation:.2f}"
        )
    print(
        "\nOnly the module-rich memory converts a second port into halved\n"
        "elapsed time; on the matched memory the eight modules remain the\n"
        "bottleneck — exactly the trade-off Section 5-E prices."
    )


if __name__ == "__main__":
    main()
