"""Where and when each stream of a kernel run issues.

Stream ``i`` issues on port ``i % k`` (``k = config.ports``), every
stream is eligible from cycle 1, and the streams sharing a port take
turns round-robin, one request per port per cycle.  The streams here
target pairwise distinct modules of a low-order interleaved memory, so
no request ever waits or stalls and the issue schedule is exactly the
port arbitration: request ``j`` of the stream ranked ``r`` among the
``m`` streams of its port issues at cycle ``1 + r + j * m``.
"""

from __future__ import annotations

import pytest

from repro.mappings.interleaved import LowOrderInterleaved
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel

#: Requests per stream.
LENGTH = 4

#: (streams, ports) pairs: one port shared by several streams, one
#: stream per port, and ports shared unevenly.
LAYOUTS = [
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
    (2, 2),
    (3, 2),
    (5, 2),
    (3, 3),
    (7, 3),
    (8, 4),
]


def disjoint_run(stream_count, ports):
    """Run ``stream_count`` streams whose requests all hit distinct modules
    of a 64-module memory with ``T = 8``."""
    config = MemoryConfig(
        LowOrderInterleaved(6, 16),
        3,
        input_capacity=2,
        output_capacity=2,
        ports=ports,
    )
    streams = [
        [
            (element, index * LENGTH + element + config.module_count * element)
            for element in range(LENGTH)
        ]
        for index in range(stream_count)
    ]
    return MemoryKernel(config).run(streams)


def port_members(stream_count, ports):
    """Stream indices bound to each port, in index order."""
    return [
        [index for index in range(stream_count) if index % ports == port]
        for port in range(ports)
    ]


@pytest.mark.parametrize("stream_count, ports", LAYOUTS, ids=str)
class TestIssueOrder:
    def test_stream_binds_to_its_index_mod_ports(self, stream_count, ports):
        run = disjoint_run(stream_count, ports)
        assert run.ports == ports
        assert [stream.port for stream in run.streams] == [
            index % ports for index in range(stream_count)
        ]
        assert list(run.port_issue_cycles) == [
            LENGTH * len(members)
            for members in port_members(stream_count, ports)
        ]

    def test_streams_sharing_a_port_take_turns_from_cycle_one(
        self, stream_count, ports
    ):
        run = disjoint_run(stream_count, ports)
        for members in port_members(stream_count, ports):
            for rank, index in enumerate(members):
                stream = run.streams[index]
                assert stream.issue_stall_cycles == 0
                assert stream.wait_count == 0
                assert stream.first_issue_cycle == 1 + rank
                assert [r.issue_cycle for r in stream.requests] == [
                    1 + rank + j * len(members) for j in range(LENGTH)
                ]

    def test_bus_utilisation_counts_every_port(self, stream_count, ports):
        run = disjoint_run(stream_count, ports)
        assert run.bus_busy_cycles == stream_count * LENGTH
        assert run.bus_utilisation == run.bus_busy_cycles / (
            ports * run.total_cycles
        )
        assert 0 < run.bus_utilisation <= 1
