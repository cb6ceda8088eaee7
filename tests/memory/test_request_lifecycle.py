"""Request-level timing of the memory kernel, stage by stage.

Every request's record holds the five stages of its life: issue,
arrival at its module, service start, service finish and delivery.
These tests read the records of whole runs and check the timing
contract at each stage: the address-bus delay, the module's input queue
(``q`` slots, served in arrival order, one request in service at a
time), its output queue (``q'`` slots, whose back-pressure stops the
service unit) and the oldest-first result bus.

The random runs come from a seeded generator over low-order interleaved
memories, where address ``module + M * element`` lives in ``module``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.mappings.interleaved import LowOrderInterleaved
from repro.memory.config import MemoryConfig
from repro.memory.kernel import ISSUE_POLICIES, MemoryKernel
from repro.memory.multistream import MultiStreamMemorySystem
from repro.memory.system import MemorySystem

#: Deeper than any module's share of a random run, so no result parks.
UNBOUNDED_OUTPUT = 64


def interleaved_streams(module_count, module_lists):
    """Streams whose element ``e`` targets ``module_lists[i][e]``."""
    return [
        [
            (element, module + module_count * element)
            for element, module in enumerate(modules)
        ]
        for modules in module_lists
    ]


def random_runs(count, seed, output_capacity=None):
    """``count`` seeded kernel runs: 1-3 streams of 1-32 requests over
    1-3 ports, with every buffer depth and issue policy."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(0, 3)
        module_bits = t + rng.randint(0, 2)
        config = MemoryConfig(
            LowOrderInterleaved(module_bits, 16),
            t,
            input_capacity=rng.randint(1, 4),
            output_capacity=output_capacity or rng.randint(1, 3),
            ports=rng.randint(1, min(3, 1 << module_bits)),
        )
        module_lists = [
            [
                rng.randrange(config.module_count)
                for _ in range(rng.randint(1, 32))
            ]
            for _ in range(rng.randint(1, 3))
        ]
        streams = interleaved_streams(config.module_count, module_lists)
        policy = rng.choice(ISSUE_POLICIES)
        run = MemoryKernel(config, policy=policy).run(streams)
        yield config, run, [r for stream in run.streams for r in stream.requests]


def by_module(records):
    grouped: dict[int, list] = {}
    for record in records:
        grouped.setdefault(record.module, []).append(record)
    return grouped


def slots_held(records, module, cycle):
    """Input-queue slots of ``module`` taken once ``cycle``'s requests
    are issued: a request holds its slot from issue (it is in flight on
    the address bus) through the cycle it enters service."""
    return sum(
        1
        for r in records
        if r.module == module and r.issue_cycle <= cycle <= r.start_cycle
    )


def waiting(records, module, cycle):
    """Requests that have reached ``module`` but not yet entered
    service during ``cycle``."""
    return sum(
        1
        for r in records
        if r.module == module and r.arrival_cycle <= cycle < r.start_cycle
    )


@pytest.fixture
def cf_result(matched_planner, matched_system):
    """A conflict-free 64-element access, ``T = 8``."""
    return matched_system.run_plan(matched_planner.plan(VectorAccess(16, 12, 64)))


def serialised(input_capacity):
    """32 requests to one module of a ``T = 8`` memory."""
    config = MemoryConfig.matched(t=3, s=4, input_capacity=input_capacity)
    plan = AccessPlanner(config.mapping, 3).plan(
        VectorAccess(0, 128, 32), mode="ordered"
    )
    return config, MemorySystem(config).run_plan(plan)


class TestStages:
    def test_every_request_has_five_ordered_stages(self, cf_result):
        assert len(cf_result.requests) == 64
        for r in cf_result.requests:
            assert (
                r.issue_cycle
                < r.arrival_cycle
                <= r.start_cycle
                <= r.finish_cycle
                < r.delivery_cycle
            )

    def test_records_come_in_issue_order(self, cf_result):
        issues = [r.issue_cycle for r in cf_result.requests]
        assert issues == sorted(set(issues))

    def test_element_lifecycle(self, cf_result):
        for element in (0, 17, 63):
            r = cf_result.requests[element]
            assert r.arrival_cycle == r.issue_cycle + 1
            assert r.start_cycle == r.arrival_cycle  # conflict-free
            assert r.finish_cycle == r.start_cycle + 8 - 1
            assert r.delivery_cycle == r.finish_cycle + 1

    def test_one_issue_per_cycle(self, cf_result):
        assert [r.issue_cycle for r in cf_result.requests] == list(range(1, 65))

    def test_delivery_span(self, cf_result):
        deliveries = [r.delivery_cycle for r in cf_result.requests]
        # First at T + 2, last at T + L + 1.
        assert (min(deliveries), max(deliveries)) == (10, 73)


class TestInputQueue:
    def test_no_waiting_when_conflict_free(self, cf_result):
        records = list(cf_result.requests)
        for module in range(8):
            for cycle in range(1, cf_result.latency + 1):
                assert waiting(records, module, cycle) == 0

    def test_requests_wait_when_serialised(self):
        config, result = serialised(input_capacity=4)
        records = list(result.requests)
        hot = records[0].module
        assert {r.module for r in records} == {hot}
        peak = max(waiting(records, hot, c) for c in range(1, result.latency + 1))
        assert peak >= 2

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_queue_never_exceeds_its_capacity(self, q):
        config, result = serialised(input_capacity=q)
        records = list(result.requests)
        hot = records[0].module
        held = [slots_held(records, hot, c) for c in range(1, result.latency + 1)]
        assert max(held) == q

    def test_queue_capacity_holds_on_random_runs(self):
        for config, _run, records in random_runs(120, seed=1):
            for module, mine in by_module(records).items():
                for r in mine:
                    held = slots_held(mine, module, r.issue_cycle)
                    assert held <= config.input_capacity

    @pytest.mark.parametrize("q", [1, 2])
    def test_issue_stalls_only_on_a_full_queue(self, q):
        config, result = serialised(input_capacity=q)
        records = list(result.requests)
        stalled = 0
        for previous, nxt in zip(records, records[1:]):
            for cycle in range(previous.issue_cycle + 1, nxt.issue_cycle):
                # Slots still held when this cycle's issue is attempted.
                held = sum(
                    1
                    for r in records
                    if r.module == nxt.module
                    and r.issue_cycle < cycle <= r.start_cycle
                )
                assert held == q
                stalled += 1
        assert stalled == result.issue_stall_cycles > 0

    def test_service_waits_for_arrival(self):
        for _config, _run, records in random_runs(120, seed=2):
            for r in records:
                assert r.arrival_cycle == r.issue_cycle + 1
                assert r.start_cycle >= r.arrival_cycle

    def test_module_serves_in_arrival_order(self):
        for _config, _run, records in random_runs(120, seed=3):
            for mine in by_module(records).values():
                ordered = sorted(mine, key=lambda r: (r.issue_cycle, r.start_cycle))
                starts = [r.start_cycle for r in ordered]
                assert starts == sorted(set(starts))

    def test_one_request_in_service_at_a_time(self):
        for config, _run, records in random_runs(120, seed=4):
            service_time = config.service_ratio
            for mine in by_module(records).values():
                starts = sorted(r.start_cycle for r in mine)
                for earlier, later in zip(starts, starts[1:]):
                    assert later - earlier >= service_time


class TestOutputQueue:
    def test_result_not_deliverable_in_its_finish_cycle(self):
        for config, _run, records in random_runs(120, seed=5):
            for r in records:
                assert r.finish_cycle == r.start_cycle + config.service_ratio - 1
                assert r.delivery_cycle >= r.finish_cycle + 1

    def test_output_backpressure_blocks_start(self):
        # Module 2 finishes stream s1's element 3 at cycle 10, but the
        # result bus only frees it at 13.  With q' = 1 the module's next
        # result (s0[5], finished at 12) finds the output queue full and
        # parks in the service unit, so s0[6] cannot start until 14; one
        # more output slot lets it start at 13.
        module_lists = [[3, 3, 1, 0, 1, 2, 2, 2, 1, 3], [3, 3, 0, 2]]
        starts = {}
        for output_capacity in (1, 2):
            config = MemoryConfig(
                LowOrderInterleaved(2, 16),
                1,
                input_capacity=4,
                output_capacity=output_capacity,
            )
            run = MemoryKernel(config).run(interleaved_streams(4, module_lists))
            s0, s1 = (stream.requests for stream in run.streams)
            assert (s1[3].finish_cycle, s1[3].delivery_cycle) == (10, 13)
            assert s0[5].finish_cycle == 12
            starts[output_capacity] = s0[6].start_cycle
        assert starts == {1: 14, 2: 13}

    def test_a_module_holds_at_most_q_prime_plus_one_results(self):
        # Finished but undelivered: q' in the output queue plus at most
        # one parked in the service unit.
        for config, run, records in random_runs(80, seed=6):
            for mine in by_module(records).values():
                for cycle in range(1, run.total_cycles + 1):
                    held = sum(
                        1
                        for r in mine
                        if r.finish_cycle <= cycle < r.delivery_cycle
                    )
                    assert held <= config.output_capacity + 1


class TestResultBus:
    def test_oldest_ready_result_first(self):
        for _config, _run, records in random_runs(
            120, seed=7, output_capacity=UNBOUNDED_OUTPUT
        ):
            delivered = sorted(
                records,
                key=lambda r: (r.delivery_cycle, r.finish_cycle, r.module),
            )
            ages = [(r.finish_cycle, r.module) for r in delivered]
            assert ages == sorted(ages)

    @pytest.mark.parametrize(
        "modules, order",
        [([0, 0, 1], [0, 1, 2]), ([1, 1, 0], [0, 2, 1])],
    )
    def test_tie_breaks_by_module_index(self, modules, order):
        # The second and third requests finish in the same cycle (the
        # second waited a full service time); the lower module index is
        # delivered first, whatever the issue order.
        config = MemoryConfig(LowOrderInterleaved(1, 16), 1, input_capacity=2)
        result = MemorySystem(config).run_stream(
            interleaved_streams(2, [modules])[0]
        )
        assert result.requests[1].finish_cycle == result.requests[2].finish_cycle
        assert result.delivery_order() == order
        assert not result.conflict_free

    def test_at_most_one_delivery_per_port_per_cycle(self):
        for config, _run, records in random_runs(120, seed=8):
            per_cycle = Counter(r.delivery_cycle for r in records)
            assert max(per_cycle.values()) <= config.ports

    def test_bus_never_idles_while_a_result_is_ready(self):
        for config, _run, records in random_runs(
            120, seed=9, output_capacity=UNBOUNDED_OUTPUT
        ):
            per_cycle = Counter(r.delivery_cycle for r in records)
            for r in records:
                for cycle in range(r.finish_cycle + 1, r.delivery_cycle):
                    assert per_cycle[cycle] == config.ports

    def test_issue_policy_is_moot_for_one_stream(
        self, matched_planner, matched_config
    ):
        stream = matched_planner.plan(VectorAccess(16, 12, 128)).request_stream()
        latencies = {
            policy: MultiStreamMemorySystem(matched_config, policy=policy)
            .run_streams([stream])
            .total_cycles
            for policy in ISSUE_POLICIES
        }
        assert latencies == {"round_robin": 137, "priority": 137}
