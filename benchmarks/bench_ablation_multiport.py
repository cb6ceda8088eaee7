"""Ablation A7: memory ports vs modules — where extra bandwidth goes.

Section 5-E argues that adding modules is expensive relative to the
stride coverage it buys; Section 6 lists multi-port processors as future
work.  This bench crosses the two: with two streams of work, compare

* one port on the matched memory (M = 8),
* one port on the unmatched memory (M = 64),
* two ports on the unmatched memory (section-disjoint streams).

The expected shape: a second port roughly halves the elapsed time only
when the memory has both the module headroom (M > T) and streams whose
module footprints are disjoint — bandwidth must exist in the *modules*,
not just the buses.
"""

from dataclasses import replace

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.report.tables import render_table

LENGTH = 64


def build_rows() -> list[list]:
    matched = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    unmatched = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
    matched_planner = AccessPlanner(matched.mapping, 3)
    unmatched_planner = AccessPlanner(unmatched.mapping, 3)

    # Stream pair A: disjoint sections on the unmatched memory (bases one
    # 2**y block apart); on the matched memory the same pair shares all
    # eight modules.
    def streams(planner):
        return [
            planner.plan(VectorAccess(0, 16, LENGTH)).request_stream(),
            planner.plan(VectorAccess(1 << 9, 16, LENGTH)).request_stream(),
        ]

    rows = []
    for name, config, planner in (
        ("matched M=8, 1 port", matched, matched_planner),
        ("unmatched M=64, 1 port", unmatched, unmatched_planner),
        ("unmatched M=64, 2 ports", replace(unmatched, ports=2),
         unmatched_planner),
        ("matched M=8, 2 ports", replace(matched, ports=2), matched_planner),
    ):
        run = MemoryKernel(config).run(streams(planner))
        rows.append(
            [name, run.total_cycles,
             sum(s.wait_count for s in run.streams)]
        )
    return rows


def test_multiport_ablation(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=3, iterations=1)
    print()
    print(f"== A7: ports vs modules, two {LENGTH}-element stride-16 streams")
    print(render_table(["configuration", "total cycles", "module waits"], rows))
    by_name = {row[0]: row for row in rows}
    one_port = by_name["unmatched M=64, 1 port"][1]
    two_ports = by_name["unmatched M=64, 2 ports"][1]
    # A second port on the module-rich memory nearly halves the time.
    assert two_ports < 0.65 * one_port
    # On the matched memory the second port helps far less: the eight
    # modules are the bottleneck, not the bus.
    matched_two = by_name["matched M=8, 2 ports"][1]
    matched_one = by_name["matched M=8, 1 port"][1]
    assert matched_two > 0.8 * matched_one
