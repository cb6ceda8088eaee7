"""Cycle-accurate simulator of the Figure 2 memory subsystem.

Timing contract (all cycles 1-based):

* the processor issues at most one request per cycle; it stalls when the
  target module's input queue is full;
* address bus delay 1 cycle: a request issued at ``c`` arrives at its
  module at ``c + 1``;
* a module starts the head request when idle; service takes ``T`` cycles
  (busy ``start .. start + T - 1``) and needs the output queue to drain;
* result bus: one result per cycle, arbitrated, delivered the cycle it is
  granted; a result finishing service at the end of cycle ``f`` is first
  deliverable at ``f + 1``.

Hence a conflict-free access of ``L`` elements issued at cycles
``1 .. L`` delivers its last element at cycle ``L + T + 1`` — the paper's
minimum latency ``T + L + 1``.  The simulator's ``conflict_free``
observation (no request ever waited) is cross-checked against the static
predicate of :mod:`repro.core.distributions` in the test-suite.

:class:`MemorySystem` is the single-stream view over the one
:class:`~repro.memory.kernel.MemoryKernel` (one stream; ``config.ports``
result buses, one by default) — the cycle loop itself lives in the
kernel.  Several streams run as one ``MemoryKernel(config).run(streams)``
call, whose streams :func:`access_result_from_run` reads one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.gather import IndexedPlan
from repro.core.planner import AccessPlan
from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    KernelRun,
    KernelStream,
    MemoryKernel,
    PlanRequests,
)
from repro.memory.module import RequestRecords


@dataclass(frozen=True)
class AccessResult:
    """Outcome of simulating one request stream.

    Attributes
    ----------
    latency:
        Cycles from the first issue attempt to the last delivery.
    issue_stall_cycles:
        Cycles the processor spent unable to issue (input queue full).
    conflict_free:
        True when no request ever found its module busy *and* the result
        bus never held a result back — the dynamic counterpart of the
        paper's definition.
    requests:
        Per-request timing records, in issue order (built on first
        read; :attr:`wait_count` does not need them).
    module_busy_cycles:
        Utilisation per module.
    """

    latency: int
    issue_stall_cycles: int
    conflict_free: bool
    requests: RequestRecords
    module_busy_cycles: tuple[int, ...]

    @property
    def element_count(self) -> int:
        return len(self.requests)

    @property
    def cycles_per_element(self) -> float:
        """Average issue-to-drain cost per element."""
        return self.latency / self.element_count

    @property
    def wait_count(self) -> int:
        """Requests that queued behind a busy module."""
        return self.requests.wait_count

    def delivery_order(self) -> list[int]:
        """Element indices in the order their data returned."""
        ordered = sorted(self.requests, key=lambda r: r.delivery_cycle)
        return [request.element_index for request in ordered]

    def excess_latency(self, service_ratio: int) -> int:
        """Latency above the conflict-free minimum ``T + L + 1``."""
        return self.latency - (service_ratio + self.element_count + 1)


def access_result_from_run(
    run: KernelRun, stream_index: int, service_ratio: int
) -> AccessResult:
    """One kernel stream's outcome as an :class:`AccessResult`, read
    the same way whatever the run's stream count.

    Latency spans cycle 1 (when the stream became eligible to issue) to
    its own last delivery, and busy cycles and held results are the
    stream's own: every request occupies its module for exactly ``T``
    cycles, and a hold only taints the stream whose delivery slipped
    past ``finish + 1``.  The kernel's timing memo derives the last
    delivery and the held-result flag once from the stream's request
    cycles.  A run's only stream reads the run's own figures: its last
    delivery is the run's total cycles, its busy cycles the machine's
    and its held-result flag the run's.
    """
    stream = run.streams[stream_index]
    return AccessResult(
        latency=stream.last_delivery_cycle,
        issue_stall_cycles=stream.issue_stall_cycles,
        conflict_free=stream.conflict_free and not stream.result_held,
        requests=stream.requests,
        module_busy_cycles=tuple(
            service_ratio * count for count in stream.module_request_counts
        ),
    )


class MemorySystem:
    """The multi-module memory of Figure 2, driven cycle by cycle."""

    def __init__(self, config: MemoryConfig):
        self.config = config

    def run_plan(
        self, plan: AccessPlan | IndexedPlan, *, tracer=None
    ) -> AccessResult:
        """Simulate a strided :class:`~repro.core.planner.AccessPlan` or
        a gather's :class:`~repro.core.gather.IndexedPlan`.

        A plan made under this memory's address function — by an
        :class:`~repro.core.planner.AccessPlanner`,
        :func:`~repro.core.gather.plan_indexed` or the cooldown
        scheduler — already holds each request's module; the kernel
        reuses those instead of re-deriving them from the addresses.
        Either plan's requests reach the kernel as a
        :class:`~repro.memory.kernel.PlanRequests` view of its issue
        order, so its ``(element, address)`` pairs are built only if a
        caller reads the request records (a timeline or a trace).
        """
        modules = None
        if self.config.mapping.same_address_function(plan.mapping):
            modules = plan.modules
        return self.run_stream(
            PlanRequests(plan), modules=modules, tracer=tracer
        )

    def run_stream(
        self,
        stream: Sequence[tuple[int, int]],
        stores: Iterable[int] = (),
        *,
        modules: Sequence[int] | None = None,
        tracer=None,
    ) -> AccessResult:
        """Simulate a stream of ``(element_index, address)`` requests.

        ``stores`` optionally lists stream positions that are store
        operations; stores follow the same request path (the paper's
        module timing applies to loads and stores alike) and their
        "result" models the store acknowledgement.  ``modules``
        optionally gives each request's module under this memory's
        mapping (a plan's temporal distribution).  ``tracer`` is
        forwarded to the kernel for cycle-level event emission.
        """
        if not stream:
            raise SimulationError("cannot simulate an empty request stream")
        kernel = MemoryKernel(self.config, tracer=tracer)
        run = kernel.run(
            [KernelStream.of("access", stream, stores=stores, modules=modules)]
        )
        return access_result_from_run(run, 0, self.config.service_ratio)

