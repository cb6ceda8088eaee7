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
observation (no request waited, no issue stalled and no result was
held: :attr:`~repro.memory.kernel.AccessResult.conflict_free`, the one
rule) is cross-checked against the static predicate of
:mod:`repro.core.distributions` in the test-suite.

:class:`MemorySystem` is the single-stream view over the one
:class:`~repro.memory.kernel.MemoryKernel` (one stream; ``config.ports``
result buses, one by default) — the cycle loop itself lives in the
kernel.  Several streams run as one ``MemoryKernel(config).run(streams)``
call, which reports each stream as an
:class:`~repro.memory.kernel.AccessResult`; :meth:`MemorySystem.run_stream`
returns its one stream's as it is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.gather import IndexedPlan
from repro.core.planner import AccessPlan
from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    AccessResult,
    KernelStream,
    MemoryKernel,
    PlanRequests,
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
        forwarded to the kernel for cycle-level event emission.  Returns
        the kernel's :class:`~repro.memory.kernel.AccessResult` for the
        stream, as it is.
        """
        if not stream:
            raise SimulationError("cannot simulate an empty request stream")
        kernel = MemoryKernel(self.config, tracer=tracer)
        run = kernel.run(
            [KernelStream.of("access", stream, stores=stores, modules=modules)]
        )
        return run.streams[0]

