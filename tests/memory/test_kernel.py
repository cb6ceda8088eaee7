"""Equivalence and property tests for the unified memory kernel.

The kernel replaced three hand-written per-cycle loops (single-stream,
multi-stream, multi-port).  The strongest guarantee we can give is
cycle-for-cycle equivalence against a *reference implementation* — a
direct transcription of the legacy loops driving a per-module state
machine (:class:`ReferenceModule`, kept here as the oracle) — over the
seed workloads and over generated module sequences: every request's
issue/arrival/start/finish/delivery cycle, every stall counter and
every busy counter must match exactly.

On top of that, property tests pin the degenerate geometry to the
paper: ``ports = 1, streams = 1`` with a conflict-free access is
exactly the ``T + L + 1`` latency formula.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, SimulationError
from repro.mappings.interleaved import LowOrderInterleaved
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, MemoryKernel
from repro.memory.module import InFlightRequest, RequestRecords
from repro.memory.multiport import MultiPortMemorySystem
from repro.memory.multistream import MultiStreamMemorySystem
from repro.memory.system import MemorySystem


# -- the reference implementation (transcribed legacy loops) -------------


class ReferenceModule:
    """The legacy single-module state machine: input queue, service
    unit, output queue, driven by the reference loop in a fixed order."""

    def __init__(self, index, service_time, input_capacity, output_capacity):
        self.index = index
        self.service_time = service_time
        self.input_capacity = input_capacity
        self.output_capacity = output_capacity
        self.input_queue = deque()
        self.in_service = None
        self.blocked_result = None
        self.output_queue = deque()
        self.busy_cycles = 0

    def can_accept(self):
        return len(self.input_queue) < self.input_capacity

    def accept(self, request):
        assert self.can_accept()
        self.input_queue.append(request)

    def try_start(self, cycle):
        if self.in_service is not None or self.blocked_result is not None:
            return
        if not self.input_queue or self.input_queue[0].arrival_cycle > cycle:
            return
        head = self.input_queue.popleft()
        head.start_cycle = cycle
        head.finish_cycle = cycle + self.service_time - 1
        self.in_service = head

    def try_finish(self, cycle):
        if self.blocked_result is not None:
            if len(self.output_queue) < self.output_capacity:
                self.output_queue.append((cycle + 1, self.blocked_result))
                self.blocked_result = None
            return
        request = self.in_service
        if request is None or request.finish_cycle != cycle:
            return
        self.in_service = None
        if len(self.output_queue) < self.output_capacity:
            self.output_queue.append((cycle + 1, request))
        else:
            self.blocked_result = request

    def peek_deliverable(self, cycle):
        if not self.output_queue or self.output_queue[0][0] > cycle:
            return None
        return self.output_queue[0]

    def tick_stats(self):
        if self.in_service is not None:
            self.busy_cycles += 1


def fifo_grant(modules, cycle):
    """Oldest ready result first (ready cycle, then module index)."""
    best = None
    for module in modules:
        head = module.peek_deliverable(cycle)
        if head is None:
            continue
        key = (head[0], module.index)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def reference_run(config, streams, ports=1, policy="round_robin"):
    """The legacy per-cycle loop, generalised exactly as the three
    historical simulators composed it.

    ``ports = 1`` with one stream is the old ``MemorySystem`` loop,
    ``ports = 1`` with several streams the old ``MultiStreamMemorySystem``
    loop, and ``ports > 1`` the old ``MultiPortMemorySystem`` loop.
    Returns per-stream request records plus the counters the legacy
    result types exposed.
    """
    mapping = config.mapping
    pending = [
        [
            InFlightRequest(
                element_index=element,
                address=mapping.reduce(address),
                module=mapping.module_of(mapping.reduce(address)),
                is_store=position in stores,
            )
            for position, (element, address) in enumerate(stream)
        ]
        for stream, stores in streams
    ]
    modules = [
        ReferenceModule(
            index,
            config.service_ratio,
            config.input_capacity,
            config.output_capacity,
        )
        for index in range(config.module_count)
    ]
    stream_count = len(pending)
    cursors = [0] * stream_count
    stalls = [0] * stream_count
    first_issue = [0] * stream_count
    last_delivery = [0] * stream_count
    owner_of: dict[int, int] = {}
    rotation = [0] * ports
    delivered = 0
    total = sum(len(stream) for stream in pending)
    bus_busy = 0
    bus_held = False
    cycle = 0
    guard = (total + 2) * (config.service_ratio + 2) + 64

    while delivered < total:
        cycle += 1
        assert cycle <= guard, "reference run exceeded the cycle guard"

        for port in range(ports):
            members = [
                index
                for index in range(stream_count)
                if index % ports == port
                and cursors[index] < len(pending[index])
            ]
            if policy == "round_robin":
                members.sort(
                    key=lambda i: (i - rotation[port]) % stream_count
                )
            for stream_index in members:
                request = pending[stream_index][cursors[stream_index]]
                target = modules[request.module]
                if target.can_accept():
                    request.issue_cycle = cycle
                    request.arrival_cycle = cycle + 1
                    target.accept(request)
                    owner_of[id(request)] = stream_index
                    if first_issue[stream_index] == 0:
                        first_issue[stream_index] = cycle
                    cursors[stream_index] += 1
                    rotation[port] = stream_index + 1
                    bus_busy += 1
                    break
                stalls[stream_index] += 1
                if policy == "priority":
                    break

        ready = [
            module
            for module in modules
            if module.peek_deliverable(cycle) is not None
        ]
        grants = 0
        for _port in range(ports):
            granted = fifo_grant(modules, cycle)
            if granted is None:
                break
            request = modules[granted].output_queue.popleft()[1]
            request.delivery_cycle = cycle
            stream_index = owner_of.pop(id(request))
            last_delivery[stream_index] = max(
                last_delivery[stream_index], cycle
            )
            delivered += 1
            grants += 1
        if len(ready) > grants:
            bus_held = True

        for module in modules:
            module.try_start(cycle)
            module.tick_stats()
        for module in modules:
            module.try_finish(cycle)

    return {
        "requests": pending,
        "total_cycles": cycle,
        "stalls": stalls,
        "first_issue": first_issue,
        "last_delivery": last_delivery,
        "bus_busy": bus_busy,
        "bus_held": bus_held,
        "module_busy": [module.busy_cycles for module in modules],
    }


def timing_tuples(requests):
    return [
        (
            r.element_index,
            r.address,
            r.module,
            r.issue_cycle,
            r.arrival_cycle,
            r.start_cycle,
            r.delivery_cycle,
        )
        for r in requests
    ]


MATCHED = MemoryConfig.matched(t=3, s=4)
MATCHED_Q2 = MemoryConfig.matched(t=3, s=4, input_capacity=2)
MATCHED_DEEP = MemoryConfig.matched(t=3, s=4, input_capacity=2, output_capacity=2)
UNMATCHED = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
SLOW = MemoryConfig.matched(t=4, s=5)

#: The seed workloads: (config, mode, vectors) triples covering the
#: conflict-free scheme, ordered (conflicting) access and short vectors.
SEED_CASES = [
    (MATCHED, "auto", [VectorAccess(16, 12, 128)]),
    (MATCHED, "conflict_free", [VectorAccess(16, 12, 128)]),
    (MATCHED, "ordered", [VectorAccess(0, 1 << 6, 128)]),
    (MATCHED, "ordered", [VectorAccess(0, 8, 64)]),
    (MATCHED_Q2, "auto", [VectorAccess(0, 12, 128), VectorAccess(1, 12, 128)]),
    (MATCHED_Q2, "auto", [VectorAccess(0, 1, 64), VectorAccess(3, 1, 64), VectorAccess(7, 5, 48)]),
    (MATCHED_DEEP, "ordered", [VectorAccess(0, 16, 96), VectorAccess(2, 16, 96)]),
    (UNMATCHED, "auto", [VectorAccess(0, 16, 64), VectorAccess(1 << 9, 16, 64)]),
    (UNMATCHED, "ordered", [VectorAccess(0, 12, 64), VectorAccess(512, 12, 64), VectorAccess(1024, 3, 64)]),
    (SLOW, "ordered", [VectorAccess(5, 32, 64)]),
]


def plan_streams(config, mode, vectors):
    planner = AccessPlanner(config.mapping, config.t)
    return [
        tuple(planner.plan(vector, mode=mode).request_stream())
        for vector in vectors
    ]


class TestSingleStreamEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    def test_matches_reference(self, case):
        config, mode, vectors = case
        for stream in plan_streams(config, mode, vectors):
            reference = reference_run(config, [(stream, frozenset())])
            result = MemorySystem(config).run_stream(stream)
            assert result.latency == reference["total_cycles"]
            assert result.issue_stall_cycles == reference["stalls"][0]
            assert result.conflict_free == (
                all(not r.waited for r in reference["requests"][0])
                and not reference["bus_held"]
                and reference["stalls"][0] == 0
            )
            assert tuple(result.module_busy_cycles) == tuple(
                reference["module_busy"]
            )
            assert timing_tuples(result.requests) == timing_tuples(
                reference["requests"][0]
            )

    def test_store_positions_travel(self):
        stream = plan_streams(MATCHED, "auto", [VectorAccess(16, 12, 32)])[0]
        result = MemorySystem(MATCHED).run_stream(stream, stores=range(16))
        assert sum(1 for r in result.requests if r.is_store) == 16


class TestMultiStreamEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    @pytest.mark.parametrize("policy", ["round_robin", "priority"])
    def test_matches_reference(self, case, policy):
        config, mode, vectors = case
        streams = plan_streams(config, mode, vectors)
        reference = reference_run(
            config, [(s, frozenset()) for s in streams], policy=policy
        )
        result = MultiStreamMemorySystem(config, policy=policy).run_streams(
            streams
        )
        assert result.total_cycles == reference["total_cycles"]
        assert result.bus_busy_cycles == reference["bus_busy"]
        for index, stream_result in enumerate(result.streams):
            assert stream_result.issue_stall_cycles == reference["stalls"][index]
            assert stream_result.first_issue_cycle == reference["first_issue"][index]
            assert stream_result.last_delivery_cycle == reference["last_delivery"][index]
            assert stream_result.wait_count == sum(
                1 for r in reference["requests"][index] if r.waited
            )


class TestMultiPortEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    @pytest.mark.parametrize("ports", [1, 2, 3])
    def test_matches_reference(self, case, ports):
        config, mode, vectors = case
        if ports > config.module_count:
            pytest.skip("ports exceed modules")
        streams = plan_streams(config, mode, vectors)
        reference = reference_run(
            config, [(s, frozenset()) for s in streams], ports=ports
        )
        result = MultiPortMemorySystem(config, ports).run_streams(streams)
        assert result.total_cycles == reference["total_cycles"]
        assert result.bus_busy_cycles == reference["bus_busy"]
        for index, stream_result in enumerate(result.streams):
            assert stream_result.issue_stall_cycles == reference["stalls"][index]
            assert stream_result.first_issue_cycle == reference["first_issue"][index]
            assert stream_result.last_delivery_cycle == reference["last_delivery"][index]


class TestDegenerateGeometry:
    """``ports = 1, streams = 1`` is exactly the paper's machine."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=4),
        stride=st.integers(min_value=1, max_value=64),
        length=st.integers(min_value=4, max_value=128),
        base=st.integers(min_value=0, max_value=1024),
    )
    def test_conflict_free_hits_minimum_latency(self, t, stride, length, base):
        config = MemoryConfig.matched(t=t, s=5)
        planner = AccessPlanner(config.mapping, t)
        plan = planner.plan(VectorAccess(base, stride, length), mode="auto")
        run = MemoryKernel(config).run([plan.request_stream()])
        stream = run.streams[0]
        conflict_free = stream.conflict_free and not run.bus_held_result
        if conflict_free:
            assert run.total_cycles == config.service_ratio + length + 1
        else:
            assert run.total_cycles > config.service_ratio + length + 1

    @settings(max_examples=30, deadline=None)
    @given(
        stride=st.integers(min_value=1, max_value=48),
        length=st.integers(min_value=4, max_value=96),
    )
    def test_kernel_view_equals_memory_system(self, stride, length):
        plan = AccessPlanner(MATCHED.mapping, 3).plan(
            VectorAccess(0, stride, length), mode="auto"
        )
        via_view = MemorySystem(MATCHED).run_plan(plan)
        run = MemoryKernel(MATCHED).run([plan.request_stream()])
        assert via_view.latency == run.total_cycles
        assert via_view.issue_stall_cycles == run.streams[0].issue_stall_cycles


def single_stream_summary(run):
    stream = run.streams[0]
    return (
        run.total_cycles,
        stream.issue_stall_cycles,
        run.bus_held_result,
        tuple(run.module_busy_cycles),
        timing_tuples(stream.requests),
    )


def reference_summary(config, stream):
    reference = reference_run(
        config, [(stream, frozenset())], ports=config.ports
    )
    return (
        reference["total_cycles"],
        reference["stalls"][0],
        reference["bus_held"],
        tuple(reference["module_busy"]),
        timing_tuples(reference["requests"][0]),
    )


@st.composite
def kernel_cases(draw, max_streams=1):
    """A geometry plus module sequences, one per stream, as addresses of
    a low-order interleaved memory (address ``a`` lives in module
    ``a mod M``)."""
    t = draw(st.integers(min_value=0, max_value=3))
    module_bits = t + draw(st.integers(min_value=0, max_value=2))
    config = MemoryConfig(
        LowOrderInterleaved(module_bits, 16),
        t,
        input_capacity=draw(st.integers(min_value=1, max_value=4)),
        output_capacity=draw(st.integers(min_value=1, max_value=3)),
        ports=draw(
            st.integers(min_value=1, max_value=min(3, 1 << module_bits))
        ),
    )
    module_count = config.module_count
    streams = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_streams))):
        modules = draw(
            st.lists(
                st.integers(min_value=0, max_value=module_count - 1),
                min_size=1,
                max_size=48,
            )
        )
        streams.append(
            [
                (element, module + module_count * element)
                for element, module in enumerate(modules)
            ]
        )
    return config, streams


class TestEventDrivenLoop:
    """The kernel's event-driven loop (and, for one conflict-free
    stream, its closed form) must match the reference loop cycle for
    cycle on generated module sequences."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_matches_reference(self, case):
        config, (stream,) = case
        modules = [address % config.module_count for _e, address in stream]
        expected = reference_summary(config, stream)
        kernel = MemoryKernel(config)
        assert single_stream_summary(kernel.run([stream])) == expected
        with_modules = KernelStream.of("access", stream, modules=modules)
        assert single_stream_summary(kernel.run([with_modules])) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=12),
        start_cycle=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_conflict_free_closed_form_equals_event_loop(
        self, t, rounds, start_cycle, data
    ):
        from repro.memory.kernel import _conflict_free_timing

        service_time = 1 << t
        config = MemoryConfig.matched(t=t, s=4, input_capacity=2)
        # Repeating one permutation of T modules keeps every two
        # requests to a module exactly T positions apart.
        order = data.draw(st.permutations(range(service_time)))
        modules = list(order) * rounds
        loop = MemoryKernel(config)._cycle_loop(
            [modules], [0], [start_cycle]
        )
        assert _conflict_free_timing(
            len(modules), start_cycle, service_time
        ) == loop

    @settings(max_examples=100, deadline=None)
    @given(
        kernel_cases(max_streams=3),
        st.sampled_from(["round_robin", "priority"]),
    )
    def test_several_streams_match_reference(self, case, policy):
        config, streams = case
        reference = reference_run(
            config,
            [(stream, frozenset()) for stream in streams],
            ports=config.ports,
            policy=policy,
        )
        run = MemoryKernel(config, policy=policy).run(streams)
        assert run.total_cycles == reference["total_cycles"]
        assert run.bus_busy_cycles == reference["bus_busy"]
        assert run.bus_held_result == reference["bus_held"]
        assert list(run.module_busy_cycles) == reference["module_busy"]
        for index, stream in enumerate(run.streams):
            assert stream.issue_stall_cycles == reference["stalls"][index]
            assert stream.first_issue_cycle == reference["first_issue"][index]
            assert (
                stream.last_delivery_cycle == reference["last_delivery"][index]
            )
            assert timing_tuples(stream.requests) == timing_tuples(
                reference["requests"][index]
            )

    @pytest.mark.parametrize(
        "t, module_bits, q, ports, policy, module_lists",
        [
            (0, 3, 4, 2, "round_robin", [[6, 7, 1], [1, 7, 2, 7]]),
            (0, 3, 2, 2, "priority", [[4, 2, 4, 6, 1, 2, 4], [4, 1, 7, 5], [0, 1]]),
            (1, 2, 4, 1, "round_robin", [[3, 3, 1, 0, 1, 2, 2, 2, 1, 3], [3, 3, 0, 2]]),
        ],
    )
    def test_full_output_queue_parks_the_result(
        self, t, module_bits, q, ports, policy, module_lists
    ):
        # Streams that make a module finish while its q' = 1 output
        # queue still holds an undelivered result: the result must park
        # and block the module until a delivery frees the slot.
        config = MemoryConfig(
            LowOrderInterleaved(module_bits, 16),
            t,
            input_capacity=q,
            output_capacity=1,
            ports=ports,
        )
        size = config.module_count
        streams = [
            [(element, m + size * element) for element, m in enumerate(ms)]
            for ms in module_lists
        ]
        reference = reference_run(
            config,
            [(stream, frozenset()) for stream in streams],
            ports=ports,
            policy=policy,
        )
        run = MemoryKernel(config, policy=policy).run(streams)
        assert run.total_cycles == reference["total_cycles"]
        for index, stream in enumerate(run.streams):
            assert stream.issue_stall_cycles == reference["stalls"][index]
            assert timing_tuples(stream.requests) == timing_tuples(
                reference["requests"][index]
            )

    def test_plan_modules_reused_only_for_the_same_mapping(self):
        plan = AccessPlanner(MATCHED.mapping, 3).plan(VectorAccess(16, 12, 64))
        other = MemoryConfig(LowOrderInterleaved(3), 3)
        via_plan = MemorySystem(other).run_plan(plan)
        via_addresses = MemorySystem(other).run_stream(plan.request_stream())
        assert via_plan.latency == via_addresses.latency
        assert timing_tuples(via_plan.requests) == timing_tuples(
            via_addresses.requests
        )

    def test_records_are_built_on_first_read(self):
        plan = AccessPlanner(MATCHED.mapping, 3).plan(VectorAccess(0, 64, 32))
        result = MemorySystem(MATCHED).run_plan(plan)
        assert result.requests._records is None
        assert result.wait_count > 0 and result.element_count == 32
        assert result.requests._records is None
        assert result.wait_count == sum(r.waited for r in result.requests)


class TestKernelValidation:
    def test_ports_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryKernel(MATCHED, ports=0)

    def test_ports_bounded_by_modules(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryKernel(MATCHED, ports=9)

    def test_config_ports_validated(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=0)
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=16)

    def test_colliding_stream_names(self):
        kernel = MemoryKernel(MATCHED)
        streams = [
            KernelStream.of("same", [(0, 0)]),
            KernelStream.of("same", [(0, 8)]),
        ]
        with pytest.raises(ConfigurationError, match="colliding stream names"):
            kernel.run(streams)

    def test_stream_port_out_of_range(self):
        kernel = MemoryKernel(MATCHED, ports=2)
        with pytest.raises(ConfigurationError, match="'port'"):
            kernel.run([KernelStream.of("a", [(0, 0)], port=5)])

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            MemoryKernel(MATCHED, policy="bogus")

    def test_modules_must_match_requests(self):
        kernel = MemoryKernel(MATCHED)
        with pytest.raises(ConfigurationError, match="'modules'"):
            kernel.run([KernelStream.of("a", [(0, 0), (1, 1)], modules=[0])])
        with pytest.raises(ConfigurationError, match="'modules'"):
            kernel.run([KernelStream.of("a", [(0, 0)], modules=[8])])

    def test_empty_streams_rejected(self):
        kernel = MemoryKernel(MATCHED)
        with pytest.raises(SimulationError):
            kernel.run([])
        with pytest.raises(SimulationError):
            kernel.run([[]])


class TestKernelRunRecord:
    def test_port_occupancy_reported(self):
        streams = plan_streams(
            UNMATCHED, "auto", [VectorAccess(0, 16, 32), VectorAccess(1 << 9, 16, 32)]
        )
        run = MemoryKernel(UNMATCHED, ports=2).run(streams)
        assert run.ports == 2
        assert [stream.port for stream in run.streams] == [0, 1]
        assert sum(run.port_issue_cycles) == run.bus_busy_cycles == 64
        assert run.aggregate_elements == 64

    def test_busy_attribution_sums_to_total(self):
        streams = plan_streams(
            MATCHED_Q2, "auto", [VectorAccess(0, 12, 64), VectorAccess(1, 12, 64)]
        )
        run = MemoryKernel(MATCHED_Q2).run(streams)
        per_stream = [
            tuple(
                MATCHED_Q2.service_ratio * count
                for count in stream.module_request_counts
            )
            for stream in run.streams
        ]
        combined = tuple(sum(parts) for parts in zip(*per_stream))
        assert combined == run.module_busy_cycles


class TestPerStreamHoldAttribution:
    """A held result only taints the stream whose delivery slipped."""

    @staticmethod
    def one_request_stream(name, index, module, delivery):
        from repro.memory.kernel import StreamRun

        return StreamRun(
            name=name,
            index=index,
            port=0,
            first_issue_cycle=1,
            last_delivery_cycle=delivery,
            issue_stall_cycles=0,
            requests=RequestRecords(
                requests=((0, module),),
                modules=(module,),
                arrival=(2,),
                start=(2,),
                delivery=(delivery,),
                service_time=8,
            ),
            module_request_counts=tuple(
                1 if m == module else 0 for m in range(8)
            ),
        )

    def test_clean_stream_stays_conflict_free(self):
        from repro.memory.kernel import KernelRun
        from repro.memory.system import access_result_from_run

        clean = self.one_request_stream("clean", 0, 0, delivery=10)
        held = self.one_request_stream("held", 1, 1, delivery=11)
        run = KernelRun(
            streams=(clean, held),
            total_cycles=11,
            ports=1,
            bus_busy_cycles=2,
            bus_held_result=True,
            module_busy_cycles=(8, 8, 0, 0, 0, 0, 0, 0),
        )
        assert not clean.result_held
        assert held.result_held
        assert access_result_from_run(run, 0, 8).conflict_free
        assert not access_result_from_run(run, 1, 8).conflict_free

    def test_single_stream_keeps_global_flag(self):
        from repro.memory.kernel import KernelRun
        from repro.memory.system import access_result_from_run

        clean = self.one_request_stream("only", 0, 0, delivery=10)
        run = KernelRun(
            streams=(clean,),
            total_cycles=10,
            ports=1,
            bus_busy_cycles=1,
            bus_held_result=True,
            module_busy_cycles=(8, 0, 0, 0, 0, 0, 0, 0),
        )
        assert not access_result_from_run(run, 0, 8).conflict_free
