"""Equivalence and property tests for the unified memory kernel.

The kernel replaced three hand-written per-cycle loops (single-stream,
multi-stream, multi-port).  The strongest guarantee we can give is
cycle-for-cycle equivalence against a *reference implementation* — a
direct transcription of the legacy loops driving a per-module state
machine (:class:`ReferenceModule`, kept here as the oracle) — over the
seed workloads and over generated module sequences: every request's
issue/arrival/start/finish/delivery cycle, every stall counter and
every busy counter must match exactly.  Each of those tests empties the
kernel's timing memo first (``kernel_timing.cache_clear()``), so a memo
hit never stands in for the loop under test; ``TestLoopMemo`` pins the
memo itself, and ``TestSteadyStateSkip`` pins the loop's skip over a
repeating steady state on periodic streams.

On top of that, property tests pin the degenerate geometry to the
paper: ``ports = 1, streams = 1`` with a conflict-free access is
exactly the ``T + L + 1`` latency formula.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, SimulationError
from repro.mappings.interleaved import LowOrderInterleaved
from repro.memory.config import MemoryConfig
from repro.memory import kernel as kernel_module
from repro.memory.kernel import (
    LOOP_MEMO_SIZE,
    AccessResult,
    KernelRun,
    KernelStream,
    MemoryKernel,
    _conflict_free_timing,
    cycle_loop,
    kernel_timing,
)
from repro.memory.module import (
    InFlightRequest,
    RequestRecords,
    count_waits,
    results_held,
)
from repro.memory.system import MemorySystem
from repro.obs.tracer import Tracer
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    example_params,
    kinds,
)
from repro.scenarios.facade import build_point, resolved_program


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


def reference_run(config, streams, ports=1):
    """The legacy per-cycle loop, generalised exactly as the three
    historical simulators composed it.

    ``ports = 1`` with one stream is the old single-stream loop,
    ``ports = 1`` with several streams the old shared-bus loop, and
    ``ports > 1`` the old multi-port loop; stream ``i`` issues on port
    ``i % ports`` and streams sharing a port take turns round-robin.
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
            members.sort(key=lambda i: (i - rotation[port]) % stream_count)
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


def held_in(requests):
    """Whether a reference stream delivered some result after the first
    cycle it was deliverable (``finish + 1``)."""
    return any(r.delivery_cycle > r.finish_cycle + 1 for r in requests)


def conflict_free_in(reference, index):
    """Whether reference stream ``index`` is conflict-free: no request
    waited, the stream never stalled at issue and no result was held."""
    requests = reference["requests"][index]
    return (
        reference["stalls"][index] == 0
        and not any(r.waited for r in requests)
        and not held_in(requests)
    )


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
            kernel_timing.cache_clear()
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
    def test_matches_reference(self, case):
        config, mode, vectors = case
        streams = plan_streams(config, mode, vectors)
        reference = reference_run(config, [(s, frozenset()) for s in streams])
        kernel_timing.cache_clear()
        result = MemoryKernel(config).run(streams)
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
        kernel_timing.cache_clear()
        result = MemoryKernel(replace(config, ports=ports)).run(streams)
        assert result.total_cycles == reference["total_cycles"]
        assert result.bus_busy_cycles == reference["bus_busy"]
        assert result.bus_held_result == reference["bus_held"]
        for index, stream_result in enumerate(result.streams):
            assert stream_result.issue_stall_cycles == reference["stalls"][index]
            assert stream_result.first_issue_cycle == reference["first_issue"][index]
            assert stream_result.last_delivery_cycle == reference["last_delivery"][index]
            assert stream_result.result_held == held_in(
                reference["requests"][index]
            )
            assert stream_result.conflict_free == conflict_free_in(
                reference, index
            )


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
        if run.streams[0].conflict_free:
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
        kernel_timing.cache_clear()
        via_view = MemorySystem(MATCHED).run_plan(plan)
        kernel_timing.cache_clear()
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
def kernel_cases(draw, max_streams=1, min_streams=1):
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
    for _ in range(
        draw(st.integers(min_value=min_streams, max_value=max_streams))
    ):
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
        kernel_timing.cache_clear()
        assert single_stream_summary(kernel.run([stream])) == expected
        with_modules = KernelStream.of("access", stream, modules=modules)
        kernel_timing.cache_clear()
        assert single_stream_summary(kernel.run([with_modules])) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_conflict_free_closed_form_equals_event_loop(
        self, t, rounds, data
    ):
        service_time = 1 << t
        config = MemoryConfig.matched(t=t, s=4, input_capacity=2)
        # Repeating one permutation of T modules keeps every two
        # requests to a module exactly T positions apart.
        order = data.draw(st.permutations(range(service_time)))
        modules = tuple(order) * rounds
        loop = cycle_loop(
            service_time,
            config.module_count,
            config.input_capacity,
            config.output_capacity,
            config.ports,
            (modules,),
        )
        # The closed form returns its per-request cycles as ranges and
        # the loop as tuples.
        closed = tuple(
            tuple(part) if isinstance(part, range) else part
            for part in _conflict_free_timing(len(modules), service_time)
        )
        assert closed == loop

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases(max_streams=3))
    def test_several_streams_match_reference(self, case):
        config, streams = case
        reference = reference_run(
            config,
            [(stream, frozenset()) for stream in streams],
            ports=config.ports,
        )
        kernel_timing.cache_clear()
        run = MemoryKernel(config).run(streams)
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
            assert stream.conflict_free == conflict_free_in(reference, index)

    @pytest.mark.parametrize(
        "t, module_bits, q, ports, module_lists",
        [
            (0, 3, 4, 2, [[6, 7, 1], [1, 7, 2, 7]]),
            (1, 2, 4, 1, [[3, 3, 1, 0, 1, 2, 2, 2, 1, 3], [3, 3, 0, 2]]),
        ],
    )
    def test_full_output_queue_parks_the_result(
        self, t, module_bits, q, ports, module_lists
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
        )
        kernel_timing.cache_clear()
        run = MemoryKernel(config).run(streams)
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


class TestLoopMemo:
    """The bounded memo :func:`kernel_timing`, over the closed form and
    the loop alike: keyed by exactly what the timing reads, so a hit
    equals a cold run field for field, a change to any timing input
    misses, and the conflict-freedom check and the module counts run
    once per distinct input."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases(max_streams=3), st.integers(min_value=1, max_value=64))
    def test_hit_equals_cold_run(self, case, shift):
        config, streams = case
        size = config.module_count
        # The same module sequences at other addresses: a memo hit.
        moved = [
            [(element, address + size * shift) for element, address in stream]
            for stream in streams
        ]
        kernel_timing.cache_clear()
        with mock.patch.object(
            kernel_module,
            "is_conflict_free",
            wraps=kernel_module.is_conflict_free,
        ) as check, mock.patch.object(
            kernel_module, "count_waits", wraps=kernel_module.count_waits
        ) as count:
            MemoryKernel(config).run(streams)
            warm = MemoryKernel(config).run(moved)
            waits = [stream_run.wait_count for stream_run in warm.streams]
        assert kernel_timing.cache_info().hits == 1
        # Only one stream with T >= 2 can take the closed form, and only
        # the cold run asks whether it may; each stream's waits are
        # counted once, and the warm run reads them.
        assert check.call_count == (
            1 if len(streams) == 1 and config.service_ratio > 1 else 0
        )
        assert count.call_count == len(streams)
        assert waits == [
            sum(request.waited for request in stream_run.requests)
            for stream_run in warm.streams
        ]
        kernel_timing.cache_clear()
        assert warm == MemoryKernel(config).run(moved)

    def test_a_conflict_free_stream_is_checked_once(self):
        plan = AccessPlanner(MATCHED.mapping, 3).plan(VectorAccess(16, 12, 64))
        kernel_timing.cache_clear()
        with mock.patch.object(
            kernel_module,
            "is_conflict_free",
            wraps=kernel_module.is_conflict_free,
        ) as check, mock.patch.object(
            kernel_module, "cycle_loop", wraps=kernel_module.cycle_loop
        ) as loop:
            cold = MemorySystem(MATCHED).run_plan(plan)
            warm = MemorySystem(MATCHED).run_plan(plan)
        assert check.call_count == 1
        assert not loop.called
        assert kernel_timing.cache_info().hits == 1
        assert cold == warm
        assert cold.conflict_free
        assert cold.latency == MATCHED.service_ratio + 64 + 1

    def test_every_loop_input_is_in_the_key(self):
        config = MemoryConfig(LowOrderInterleaved(3, 16), 1)
        stream = KernelStream.of(
            "s0", [(element, 8 * element) for element in range(12)],
            modules=[0] * 12,
        )
        variants = [
            replace(config, t=2),
            replace(config, input_capacity=2),
            replace(config, output_capacity=2),
            replace(config, ports=2),
            MemoryConfig(LowOrderInterleaved(4, 16), 1),
        ]
        kernel_timing.cache_clear()
        MemoryKernel(config).run([stream])
        for variant in variants:
            MemoryKernel(variant).run([stream])
        assert kernel_timing.cache_info().hits == 0
        assert kernel_timing.cache_info().misses == len(variants) + 1
        MemoryKernel(config).run([stream])
        assert kernel_timing.cache_info().hits == 1

    def test_memo_is_bounded(self):
        config = MemoryConfig(LowOrderInterleaved(3, 16), 1)
        kernel_timing.cache_clear()
        lengths = range(2, 2 + LOOP_MEMO_SIZE)
        with mock.patch.object(
            kernel_module, "cycle_loop", wraps=kernel_module.cycle_loop
        ) as loop:
            for length in lengths:
                # Every request on module 0 needs the loop; modules 0, 1,
                # 2, ... in turn are conflict-free and take the closed
                # form.  Both fill the one memo.
                MemoryKernel(config).run(
                    [[(element, 8 * element) for element in range(length)]]
                )
                MemoryKernel(config).run(
                    [[(element, element) for element in range(length)]]
                )
        info = kernel_timing.cache_info()
        assert loop.call_count == len(lengths)
        assert info.misses == 2 * len(lengths)
        assert info.currsize == LOOP_MEMO_SIZE == 40

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases(max_streams=4, min_streams=2), st.data())
    def test_a_hit_equals_a_cold_run_stream_by_stream(self, case, data):
        config, requests = case
        streams = []
        for index, stream in enumerate(requests):
            # No stores, a vector store's range, or any set of positions.
            stores = data.draw(
                st.sampled_from(["none", "range", "set"]), label="stores"
            )
            if stores == "range":
                positions = range(len(stream))
            elif stores == "set":
                positions = frozenset(
                    data.draw(st.sets(st.integers(0, len(stream) - 1)))
                )
            else:
                positions = frozenset()
            streams.append(KernelStream(f"s{index}", tuple(stream), positions))
        kernel_timing.cache_clear()
        cold = MemoryKernel(config).run(streams)
        warm = MemoryKernel(config).run(streams)
        assert kernel_timing.cache_info().hits == 1
        assert warm == cold
        reference = reference_run(
            config,
            [(stream.requests, stream.stores) for stream in streams],
            ports=config.ports,
        )
        for index, (was, now) in enumerate(zip(cold.streams, warm.streams)):
            for field in fields(AccessResult):
                assert getattr(now, field.name) == getattr(was, field.name)
            assert now.conflict_free == was.conflict_free
            assert list(now.requests) == list(was.requests)
            # The hit's per-stream timing is the reference loop's too.
            records = list(now.requests)
            expected = reference["requests"][index]
            assert timing_tuples(records) == timing_tuples(expected)
            assert [r.is_store for r in records] == [
                r.is_store for r in expected
            ]
            assert now.issue_stall_cycles == reference["stalls"][index]
            assert now.first_issue_cycle == reference["first_issue"][index]
            assert (
                now.last_delivery_cycle == reference["last_delivery"][index]
            )
            assert now.wait_count == sum(r.waited for r in records)
            assert now.requests.result_held == held_in(records)
            assert now.conflict_free == conflict_free_in(reference, index)

    def test_a_module_out_of_range_is_refused_on_every_call(self):
        kernel = MemoryKernel(MATCHED)
        good = KernelStream.of("a", [(0, 0), (1, 1)], modules=[0, 1])
        for bad_modules in ([0, 8], [-1, 0]):
            bad = KernelStream.of("b", [(0, 0), (1, 1)], modules=bad_modules)
            kernel_timing.cache_clear()
            for _ in range(3):
                kernel.run([good])
                for streams in ([good, bad], [bad]):
                    with pytest.raises(
                        ConfigurationError,
                        match=r"^stream 'b' field 'modules' must lie in "
                        r"\[0, 8\)$",
                    ):
                        kernel.run(streams)
        assert kernel_timing.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "streams, error, message",
        [
            # The module range of an earlier stream comes first ...
            ([("a", [0, 8]), ("b", None, [])], ConfigurationError, "'a'.*must lie"),
            ([("a", [0, 8]), ("a", [0, 1])], ConfigurationError, "'a'.*must lie"),
            ([("a", [0, 8]), ("b", [0])], ConfigurationError, "'a'.*must lie"),
            ([("a", [0, 1]), ("b", [0, 9]), ("c", [9, 0])], ConfigurationError, "'b'.*must lie"),
            ([("x", None, [(0, "no address")]), ("b", [0, 8])], ConfigurationError, "'b'.*must lie"),
            # ... and a stream's own earlier rules, or an earlier stream's.
            ([("a", [0]), ("b", [0, 8])], ConfigurationError, "'a'.*1 entries for 2"),
            ([("a", None, []), ("b", [0, 8])], SimulationError, "non-empty"),
            ([("a", [0, 1]), ("a", [0, 8])], ConfigurationError, "colliding"),
        ],
    )
    def test_an_input_that_breaks_two_rules_is_refused_for_the_first(
        self, streams, error, message
    ):
        def stream(name, modules, requests=((0, 0), (1, 1))):
            return KernelStream(name, tuple(requests), frozenset(), (
                None if modules is None else tuple(modules)
            ))

        kernel_timing.cache_clear()
        for _ in range(2):
            with pytest.raises(error, match=message):
                MemoryKernel(MATCHED).run([stream(*spec) for spec in streams])

    def test_range_stores_mark_the_same_records_as_a_set(self):
        stream = plan_streams(MATCHED, "auto", [VectorAccess(16, 12, 32)])[0]
        runs = [
            MemoryKernel(MATCHED).run([KernelStream("s", stream, stores)])
            for stores in (range(20), frozenset(range(20)))
        ]
        as_range, as_set = (run.streams[0].requests for run in runs)
        assert list(as_range) == list(as_set)
        assert [r.is_store for r in as_range] == [True] * 20 + [False] * 12

    @pytest.mark.parametrize("memory_streams", [1, 2])
    @pytest.mark.parametrize("kind", kinds("program"))
    def test_every_program_kind_times_the_same_cold_and_warm(
        self, kind, memory_streams
    ):
        spec = ScenarioSpec(
            mapping=ComponentSpec.of("matched-xor", t=3, s=4),
            memory=MemorySpec(t=3, q=2, ports=2),
            program=ComponentSpec.of(kind, **example_params("program", kind)),
            drive=ComponentSpec.of("decoupled", memory_streams=memory_streams),
        )
        machine, entry = resolved_program(build_point(spec))
        kernel_timing.cache_clear()
        cold = machine.time(entry.resolved)
        misses = kernel_timing.cache_info().misses
        warm = machine.time(entry.resolved)
        assert kernel_timing.cache_info().misses == misses
        assert warm == cold
        assert warm.batch_breaks == cold.batch_breaks
        for (scheme, now), (was_scheme, was) in zip(
            warm.memory_runs, cold.memory_runs
        ):
            assert scheme == was_scheme
            assert now.requests.result_held == was.requests.result_held
            assert timing_tuples(now.requests) == timing_tuples(was.requests)
            assert [r.is_store for r in now.requests] == [
                r.is_store for r in was.requests
            ]


@st.composite
def periodic_cases(draw):
    """A geometry plus one stream whose modules repeat a pattern of ``P``
    in {1, 2, 4, 8} modules, ``4P`` to 256 requests long, as addresses of
    a low-order interleaved memory."""
    t = draw(st.integers(min_value=0, max_value=3))
    module_bits = t + draw(st.integers(min_value=0, max_value=2))
    config = MemoryConfig(
        LowOrderInterleaved(module_bits, 16),
        t,
        input_capacity=draw(st.integers(min_value=1, max_value=8)),
        output_capacity=draw(st.integers(min_value=1, max_value=4)),
        ports=draw(
            st.integers(min_value=1, max_value=min(3, 1 << module_bits))
        ),
    )
    size = config.module_count
    period = draw(st.sampled_from([1, 2, 4, 8]))
    pattern = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=period,
            max_size=period,
        )
    )
    length = draw(st.integers(min_value=4 * period, max_value=256))
    modules = (pattern * (length // period + 1))[:length]
    stream = [
        (element, module + size * element)
        for element, module in enumerate(modules)
    ]
    return config, stream


class TestSteadyStateSkip:
    """A single periodic stream may skip its repeating steady state:
    the loop copies whole repeats and simulates only the tail.  That
    must be invisible: every field equals the reference loop's, traced
    or not.  The path each example took is read off a spy on the
    module-level helper that writes the copied repeats."""

    def test_skip_matches_reference(self):
        paths = set()

        @settings(max_examples=150, deadline=None)
        @given(periodic_cases())
        def check(case):
            config, stream = case
            expected = reference_summary(config, stream)
            with mock.patch.object(
                kernel_module,
                "_copy_repeats",
                wraps=kernel_module._copy_repeats,
            ) as spy, mock.patch.object(
                kernel_module, "cycle_loop", wraps=kernel_module.cycle_loop
            ) as loop:
                kernel_timing.cache_clear()
                untraced = MemoryKernel(config).run([stream])
                looped = loop.called
                tracer = Tracer()
                kernel_timing.cache_clear()
                traced = MemoryKernel(config, tracer=tracer).run([stream])
            if spy.called:
                path = "skipped"
            else:
                # A conflict-free stream takes the closed form instead.
                path = "plain loop" if looped else "closed form"
            event(path)
            paths.add(path)
            assert single_stream_summary(untraced) == expected
            assert traced == untraced
            service = config.service_ratio
            assert sorted(
                (track, begin, end)
                for _kind, track, _name, begin, end, _args in tracer.spans(
                    "memory/module"
                )
            ) == sorted(
                (f"memory/module {module}", begin, begin + service - 1)
                for _e, _a, module, _i, _r, begin, _d in expected[-1]
            )

        check()
        assert {"skipped", "plain loop"} <= paths

    def test_skip_shifts_a_parked_result(self):
        # A period-16 stream that reaches its repeat while a result is
        # parked behind a full q' = 1 output queue.
        config = MemoryConfig(
            LowOrderInterleaved(3, 16), 1, input_capacity=6, output_capacity=1
        )
        pattern = [1, 0, 1, 1, 1, 1, 2, 1, 0, 0, 2, 1, 2, 0, 2, 2]
        stream = [
            (element, pattern[element % 16] + 8 * element)
            for element in range(73)
        ]
        with mock.patch.object(
            kernel_module, "_lowest_named", wraps=kernel_module._lowest_named
        ) as spy:
            kernel_timing.cache_clear()
            run = MemoryKernel(config).run([stream])
        (state,), _ = spy.call_args
        modules = state[0]
        assert any(parked is not None for _q, _s, parked, _o in modules)
        assert single_stream_summary(run) == reference_summary(config, stream)

    def test_skipped_share_of_a_long_conflicting_stream(self):
        # 1000 requests to one module: the loop runs the transient and
        # the tail and copies the rest.
        config = MemoryConfig(LowOrderInterleaved(3, 16), 3)
        stream = [(element, 8 * element) for element in range(1000)]
        with mock.patch.object(
            kernel_module,
            "_copy_repeats",
            wraps=kernel_module._copy_repeats,
        ) as spy:
            kernel_timing.cache_clear()
            run = MemoryKernel(config).run([stream])
        (_timings, _lowest, earlier, later, count), _ = spy.call_args
        assert count * (later[0] - earlier[0]) > 900
        assert single_stream_summary(run) == reference_summary(config, stream)


class TestKernelValidation:
    def test_config_ports_validated(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=0)
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=16)

    def test_ports_must_be_positive(self):
        # The kernel reads its port count from the config; a port count
        # set with ``replace`` is checked there, before any kernel exists.
        with pytest.raises(ConfigurationError, match="'ports'"):
            replace(MATCHED, ports=0)

    def test_ports_bounded_by_modules(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            replace(MATCHED, ports=MATCHED.module_count + 1)

    def test_kernel_takes_only_config_and_tracer(self):
        parameters = inspect.signature(MemoryKernel).parameters
        assert list(parameters) == ["config", "tracer"]
        assert parameters["tracer"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_kernel_stream_fields(self):
        assert [field.name for field in fields(KernelStream)] == [
            "name",
            "requests",
            "stores",
            "modules",
        ]

    def test_colliding_stream_names(self):
        kernel = MemoryKernel(MATCHED)
        streams = [
            KernelStream.of("same", [(0, 0)]),
            KernelStream.of("same", [(0, 8)]),
        ]
        with pytest.raises(ConfigurationError, match="colliding stream names"):
            kernel.run(streams)

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
        run = MemoryKernel(replace(UNMATCHED, ports=2)).run(streams)
        assert run.ports == 2
        assert [stream.port for stream in run.streams] == [0, 1]
        assert sum(run.port_issue_cycles) == run.bus_busy_cycles == 64
        assert run.aggregate_elements == 64

    def test_bus_utilisation_counts_every_port(self):
        # Two section-disjoint 64-element streams on two ports finish in
        # 73 cycles: 128 requests over 2 * 73 address-bus slots.
        streams = plan_streams(
            UNMATCHED, "auto", [VectorAccess(0, 16, 64), VectorAccess(1 << 9, 16, 64)]
        )
        run = MemoryKernel(replace(UNMATCHED, ports=2)).run(streams)
        assert (run.bus_busy_cycles, run.total_cycles) == (128, 73)
        assert run.bus_utilisation == run.bus_busy_cycles / (2 * run.total_cycles)
        assert run.bus_utilisation <= 1

    def test_busy_attribution_sums_to_total(self):
        streams = plan_streams(
            MATCHED_Q2, "auto", [VectorAccess(0, 12, 64), VectorAccess(1, 12, 64)]
        )
        run = MemoryKernel(MATCHED_Q2).run(streams)
        per_stream = [stream.module_busy_cycles for stream in run.streams]
        combined = tuple(sum(parts) for parts in zip(*per_stream))
        assert combined == run.module_busy_cycles


class TestPerStreamHoldAttribution:
    """A held result only taints the stream whose delivery slipped."""

    @staticmethod
    def one_request_stream(name, index, module, delivery):
        return AccessResult(
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
                wait_count=count_waits((2,), (2,)),
                result_held=results_held((2,), (delivery,), 8),
            ),
            module_busy_cycles=tuple(
                8 if m == module else 0 for m in range(8)
            ),
        )

    def test_clean_stream_stays_conflict_free(self):
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
        assert run.bus_held_result
        assert not clean.result_held
        assert held.result_held
        assert clean.conflict_free
        assert not held.conflict_free

    def test_a_single_stream_s_hold_is_the_run_s(self):
        # T = 2, q = 2, one port: request 1 waits behind request 0 on
        # module 0, so its result and request 2's (module 1) are both
        # deliverable at cycle 6 and request 2's is held to cycle 7.
        config = MemoryConfig(LowOrderInterleaved(1, 16), 1, input_capacity=2)
        stream = KernelStream.of(
            "only", [(0, 0), (1, 2), (2, 5)], modules=[0, 0, 1]
        )
        kernel_timing.cache_clear()
        run = MemoryKernel(config).run([stream])
        (only,) = run.streams
        assert only.requests.delivery_cycles == (4, 6, 7)
        assert run.bus_held_result
        assert only.result_held
        assert not only.conflict_free
