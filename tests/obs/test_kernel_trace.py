"""Kernel trace emission: zero-cost when off, cycle-exact when on.

Two properties anchor the tracing design:

1. **Results are tracer-invariant.**  The kernel derives events after
   the cycle loop from the timing records it already materialises, so a
   traced run must equal the untraced run field for field.
2. **Events are the records.**  Every span/instant must agree with the
   :class:`~repro.memory.kernel.AccessResult` it was derived from — same
   first-issue/last-delivery window, same per-module occupancy, same
   per-request service interval — and a machine's kernel span gives the
   ``conflict_free`` of its instruction's span and timeline row.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, MemoryKernel
from repro.obs import NULL_TRACER, Tracer, chrome_trace_events
from repro.result_schema import TIMELINE_FIELDS
from repro.scenarios import load_scenarios, simulate
from repro.scenarios.facade import build_point, resolved_program

CONFIG = MemoryConfig.matched(t=3, s=4, input_capacity=2)
PLANNER = AccessPlanner(CONFIG.mapping, 3)


def two_streams():
    return [
        KernelStream.of(
            "a", PLANNER.plan(VectorAccess(0, 12, 64)).request_stream()
        ),
        KernelStream.of(
            "b", PLANNER.plan(VectorAccess(1, 12, 64)).request_stream()
        ),
    ]


def traced_run(streams=None):
    tracer = Tracer()
    run = MemoryKernel(CONFIG, tracer=tracer).run(streams or two_streams())
    return run, tracer


class TestTracerInvariance:
    def test_traced_equals_untraced(self):
        plain = MemoryKernel(CONFIG).run(two_streams())
        traced, _ = traced_run()
        assert traced == plain

    def test_default_tracer_is_the_null_singleton(self):
        kernel = MemoryKernel(CONFIG)
        assert kernel.tracer is NULL_TRACER
        assert MemoryKernel(CONFIG, tracer=None).tracer is NULL_TRACER

    def test_disabled_tracing_never_derives_events(self, monkeypatch):
        # The fast path is structural: _emit_trace must not even be
        # reached when the tracer is disabled.
        def boom(self, run):
            raise AssertionError("_emit_trace called with tracing disabled")

        monkeypatch.setattr(MemoryKernel, "_emit_trace", boom)
        MemoryKernel(CONFIG).run(two_streams())
        with pytest.raises(AssertionError):
            MemoryKernel(CONFIG, tracer=Tracer()).run(two_streams())

    def test_disabled_tracing_within_noise_of_untraced(self):
        # tracer=None resolves to the same NULL_TRACER the no-argument
        # construction uses, so the two paths are the same code; the
        # timing assertion (generous bound, best of several) guards
        # against someone reintroducing per-cycle tracer work later.
        streams = two_streams()

        def best_of(kernel, repeats=5):
            samples = []
            for _ in range(repeats):
                begin = time.perf_counter()
                kernel.run(streams)
                samples.append(time.perf_counter() - begin)
            return min(samples)

        untraced = best_of(MemoryKernel(CONFIG))
        null_traced = best_of(MemoryKernel(CONFIG, tracer=None))
        assert null_traced <= untraced * 2.0 + 1e-3


class TestEmittedEvents:
    def test_stream_spans_match_stream_runs(self):
        run, tracer = traced_run()
        spans = {
            event[2]: event for event in tracer.spans("streams/")
        }
        assert len(spans) == len(run.streams)
        for stream in run.streams:
            event = spans[f"{stream.name} ({stream.element_count} elem)"]
            assert event[1] == f"streams/{stream.name}"
            assert event[3] == stream.first_issue_cycle
            assert event[4] == stream.last_delivery_cycle
            args = event[5]
            assert set(args) == {"port", "issue_stalls", "conflict_free"}
            assert args["port"] == stream.port
            assert args["issue_stalls"] == stream.issue_stall_cycles
            assert args["conflict_free"] == stream.conflict_free

    def test_module_spans_cover_every_request_service_interval(self):
        run, tracer = traced_run()
        spans = tracer.spans("memory/module ")
        assert len(spans) == run.aggregate_elements
        by_module: dict[int, int] = {}
        for _, track, _, begin, end, args in spans:
            module = int(track.rsplit(" ", 1)[1])
            by_module[module] = by_module.get(module, 0) + (end - begin + 1)
        for module, busy in enumerate(run.module_busy_cycles):
            assert by_module.get(module, 0) == busy
        intervals = {
            (event[3], event[4], event[5]["address"]) for event in spans
        }
        for stream in run.streams:
            for request in stream.requests:
                assert (
                    request.start_cycle,
                    request.finish_cycle,
                    request.address,
                ) in intervals

    def test_port_instants_one_issue_and_delivery_per_request(self):
        run, tracer = traced_run()
        issues = [
            event for event in tracer.instants("ports/") if event[2] == "issue"
        ]
        delivers = [
            event
            for event in tracer.instants("ports/")
            if event[2] == "deliver"
        ]
        assert len(issues) == run.aggregate_elements
        assert len(delivers) == run.aggregate_elements
        # One address bus per port: issue instants on a port never share
        # a cycle.
        per_port: dict[str, list[int]] = {}
        for _, track, _, at, _, _ in issues:
            per_port.setdefault(track, []).append(at)
        for cycles in per_port.values():
            assert len(cycles) == len(set(cycles))
        assert max(event[3] for event in delivers) == run.total_cycles

    def test_in_flight_counter_is_sane(self):
        run, tracer = traced_run()
        samples = [
            event for event in tracer.events if event[0] == "counter"
        ]
        levels = [event[5]["in_flight"] for event in samples]
        assert all(level >= 0 for level in levels)
        assert levels[-1] == 0  # everything delivered by the end
        assert max(levels) > 0

    def test_chrome_export_is_cycle_consistent(self):
        run, tracer = traced_run()
        events = chrome_trace_events(tracer)
        spans = [event for event in events if event["ph"] == "X"]
        assert spans, "kernel trace exported no spans"
        last = max(event["ts"] + event["dur"] - 1 for event in spans)
        assert last == run.total_cycles
        assert min(event["ts"] for event in spans) >= 1


GRID_64 = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "scenario_program_grid_64.json"
)


class TestMachineStreamAgreement:
    """A batch member's kernel ``streams/i<p>`` span, its instruction's
    ``machine/memory`` span and its timeline row say one
    ``conflict_free``, held streams included."""

    def test_held_streams_agree_with_their_instructions(self):
        name = (
            "daxpy-fallback-grid"
            "[memory_streams=2,q=2,alpha=1.5,x_stride=2]"
        )
        (spec,) = [
            spec
            for spec in load_scenarios(GRID_64.read_text())
            if spec.name == name
        ]
        # 12 of the point's streams held a result without a wait or an
        # issue stall: a rule that forgot holds would call them
        # conflict-free.
        machine, entry = resolved_program(build_point(spec))
        memory_runs = machine.time(entry.resolved).memory_runs
        held_only = [
            run
            for _scheme, run in memory_runs
            if run.requests.result_held
            and run.wait_count == 0
            and run.issue_stall_cycles == 0
        ]
        assert len(held_only) == 12
        tracer = Tracer()
        result = simulate(spec, tracer=tracer)
        kernel = {
            int(track.removeprefix("streams/i")): args["conflict_free"]
            for _kind, track, _name, _begin, _end, args in tracer.spans(
                "streams/"
            )
        }
        instructions = {
            args["position"]: args["conflict_free"]
            for *_event, args in tracer.spans("machine/memory")
        }
        rows = [dict(zip(TIMELINE_FIELDS, row)) for row in result.timeline]
        timeline = {
            row["position"]: row["conflict_free"]
            for row in rows
            if row["unit"] == "memory"
        }
        assert len(kernel) == len(memory_runs)
        assert kernel == instructions == timeline

