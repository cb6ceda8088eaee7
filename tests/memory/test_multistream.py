"""Several streams sharing one port of the memory kernel.

``MemoryKernel(config).run(streams)`` with ``config.ports = 1``: every
stream issues on the one address bus, taking turns round-robin.
"""

from __future__ import annotations

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import SimulationError
from repro.mappings.linear import MatchedXorMapping
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.memory.system import MemorySystem


@pytest.fixture
def planner():
    return AccessPlanner(MatchedXorMapping(3, 4), 3)


@pytest.fixture
def config():
    return MemoryConfig.matched(t=3, s=4, input_capacity=2)


class TestSingleStreamEquivalence:
    def test_one_stream_matches_plain_system(self, planner, config):
        """With one stream the kernel run is the plain machine."""
        plan = planner.plan(VectorAccess(16, 12, 128))
        multi = MemoryKernel(config).run([plan.request_stream()])
        plain = MemorySystem(config).run_plan(plan)
        assert multi.streams[0].latency == plain.latency
        assert multi.streams[0].conflict_free == plain.conflict_free


class TestInterleaving:
    def test_two_streams_share_the_bus(self, planner, config):
        """Two 128-element streams need at least 256 issue slots."""
        a = planner.plan(VectorAccess(0, 12, 128)).request_stream()
        b = planner.plan(VectorAccess(7, 3, 128)).request_stream()
        result = MemoryKernel(config).run([a, b])
        assert result.aggregate_elements == 256
        assert result.total_cycles >= 256
        assert result.bus_utilisation > 0.9

    def test_interleaving_breaks_individual_conflict_freedom(
        self, planner, config
    ):
        """Two individually conflict-free plans generally interfere —
        the reason the paper defers multi-vector access to future work."""
        a = planner.plan(VectorAccess(0, 12, 128)).request_stream()
        b = planner.plan(VectorAccess(1, 12, 128)).request_stream()
        result = MemoryKernel(config).run([a, b])
        total_waits = sum(stream.wait_count for stream in result.streams)
        total_stalls = sum(
            stream.issue_stall_cycles for stream in result.streams
        )
        assert total_waits + total_stalls > 0

    def test_round_robin_fairness(self, planner, config):
        a = planner.plan(VectorAccess(0, 1, 128)).request_stream()
        b = planner.plan(VectorAccess(3, 1, 128)).request_stream()
        result = MemoryKernel(config).run([a, b])
        latencies = [stream.latency for stream in result.streams]
        assert abs(latencies[0] - latencies[1]) <= 16


class TestValidation:
    def test_empty_streams_rejected(self, config):
        kernel = MemoryKernel(config)
        with pytest.raises(SimulationError):
            kernel.run([])
        with pytest.raises(SimulationError):
            kernel.run([[], [(0, 0)]])


class TestThreeStreams:
    def test_aggregate_throughput_bounded_by_bus(self, planner, config):
        streams = [
            planner.plan(VectorAccess(base, 1, 64)).request_stream()
            for base in (0, 1, 2)
        ]
        result = MemoryKernel(config).run(streams)
        assert result.aggregate_elements == 192
        # One issue per cycle: the run cannot be shorter than 192 cycles.
        assert result.total_cycles >= 192
