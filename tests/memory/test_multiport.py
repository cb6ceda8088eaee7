"""Several address/result ports: the memory kernel with ``config.ports > 1``."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.memory.system import MemorySystem


@pytest.fixture
def unmatched_config():
    """M = 64 modules: enough headroom for two ports at T = 8."""
    return MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)


@pytest.fixture
def dual_config(unmatched_config):
    return replace(unmatched_config, ports=2)


@pytest.fixture
def unmatched_planner(unmatched_config):
    return AccessPlanner(unmatched_config.mapping, 3)


class TestConstruction:
    def test_ports_positive(self, unmatched_config):
        with pytest.raises(ConfigurationError):
            replace(unmatched_config, ports=0)

    def test_ports_bounded_by_modules(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig.matched(t=3, s=4, ports=9)

    def test_empty_streams_rejected(self, dual_config):
        with pytest.raises(SimulationError):
            MemoryKernel(dual_config).run([])


class TestPortBinding:
    def test_round_robin_binding(self, dual_config):
        streams = [[(0, 64 * index)] for index in range(5)]
        run = MemoryKernel(dual_config).run(streams)
        assert [stream.port for stream in run.streams] == [0, 1, 0, 1, 0]


class TestThroughput:
    def test_single_stream_single_port_matches_plain(self, unmatched_config,
                                                     unmatched_planner):
        plan = unmatched_planner.plan(VectorAccess(0, 12, 128))
        multi = MemoryKernel(unmatched_config).run([plan.request_stream()])
        plain = MemorySystem(unmatched_config).run_plan(plan)
        assert multi.streams[0].latency == plain.latency

    def test_two_ports_double_throughput_for_disjoint_streams(
        self, unmatched_config, dual_config, unmatched_planner
    ):
        """Two conflict-free streams in different sections: two ports
        finish in about half the single-bus time."""
        # Base addresses 2**9 apart land in different sections for the
        # whole access (stride 16 stays inside a block of 2**9 words).
        a = unmatched_planner.plan(VectorAccess(0, 16, 32)).request_stream()
        b = unmatched_planner.plan(
            VectorAccess(1 << 9, 16, 32)
        ).request_stream()

        single = MemoryKernel(unmatched_config).run([a, b])
        dual = MemoryKernel(dual_config).run([a, b])
        assert dual.total_cycles < single.total_cycles
        assert dual.total_cycles <= 32 + 8 + 1 + 8  # near one stream's time

    def test_same_module_streams_do_not_speed_up(self, dual_config,
                                                 unmatched_planner):
        """Identical address patterns on two ports still serialise in the
        modules: ports widen buses, not module bandwidth."""
        a = unmatched_planner.plan(VectorAccess(0, 12, 64)).request_stream()
        dual = MemoryKernel(dual_config).run([a, a])
        waits = sum(stream.wait_count for stream in dual.streams)
        stalls = sum(stream.issue_stall_cycles for stream in dual.streams)
        assert waits + stalls > 0

    def test_all_elements_delivered(self, dual_config, unmatched_planner):
        streams = [
            unmatched_planner.plan(
                VectorAccess(base, 12, 64)
            ).request_stream()
            for base in (0, 512, 1024)
        ]
        result = MemoryKernel(dual_config).run(streams)
        assert result.aggregate_elements == 192
        assert all(stream.last_delivery_cycle > 0 for stream in result.streams)
