"""The one memory kernel: M modules × k ports × n streams, cycle-level.

Every cycle-accurate memory simulation in the library runs through
:class:`MemoryKernel`.  It generalises the Figure 2 machine along the
two axes the paper's Section 6 defers to future work:

* ``ports`` — ``k >= 1`` address/result bus pairs.  Each port carries at
  most one request and one result per cycle, so ``k`` requests can enter
  and ``k`` results can return per cycle (module bandwidth permitting);
* ``streams`` — ``n >= 1`` named request sequences, each bound to one
  port.  Streams sharing a port take turns under an issue policy
  (``round_robin`` or ``priority``); streams on different ports issue
  concurrently.

The historical simulators are thin views over this kernel:
:class:`~repro.memory.system.MemorySystem` is ``k = 1, n = 1``,
:class:`~repro.memory.multistream.MultiStreamMemorySystem` is ``k = 1,
n >= 1`` and :class:`~repro.memory.multiport.MultiPortMemorySystem` is
``k >= 1, n >= 1`` — all with bit-identical metrics to the per-cycle
loops they replaced (the equivalence suite in ``tests/memory/
test_kernel.py`` drives both against a reference implementation).

Timing contract (unchanged from the package docstring, per port):

* one request per port per cycle; a stream whose head request targets a
  module with a full input queue stalls (and, under ``round_robin``,
  yields the port to the next stream);
* address bus delay 1 cycle: a request issued at ``c`` arrives at
  ``c + 1``;
* a module starts the head request when idle; service takes ``T``
  cycles and needs the output queue to drain (``q'`` back-pressure);
* one result per port per cycle, arbitrated oldest-first (ready cycle,
  then module index), delivered the cycle it is granted; a result
  finishing service at the end of cycle ``f`` is first deliverable at
  ``f + 1``.

Hence ``ports = 1, streams = 1`` degenerates exactly to the paper's
conflict-free minimum latency ``T + L + 1``.

Performance: per-request timing lives in flat lists, and the
:class:`~repro.memory.module.InFlightRequest` records are only built
when a caller reads them (:class:`~repro.memory.module.RequestRecords`).
Callers that already know each request's module — an
:class:`~repro.core.planner.AccessPlan` carries its temporal
distribution — pass it in :attr:`KernelStream.modules` instead of
having the kernel re-derive it from the addresses.

The cycle loop is event-driven.  A module serves requests in the order
they reach it, so its input queue is a window of the requests issued to
it (a counter, not a queue); results enter the output queues in cycle
order with ``ready = cycle + 1``, so one list kept in (ready, module)
order *is* the oldest-first arbitration; and each module's next state
change — an arrival, a service end, a restart, a freed output slot — is
scheduled by cycle.  A cycle therefore costs the events in it rather
than a scan over every busy module, and cycles in which nothing can
change are skipped outright.  A single stream whose module sequence is
conflict-free (the paper's Section 2 definition) needs no loop at all:
its timing is the closed form behind ``T + L + 1``.
``benchmarks/bench_simulator_perf.py`` tracks the resulting throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.distributions import is_conflict_free
from repro.errors import ConfigurationError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.module import RequestRecords
from repro.obs.tracer import resolve_tracer

#: Issue policies for streams sharing one port.
ISSUE_POLICIES = ("round_robin", "priority")


@dataclass(frozen=True)
class KernelStream:
    """One named request stream bound to a port.

    ``requests`` are ``(element_index, address)`` pairs in issue order
    (addresses are reduced through the mapping by the kernel).
    ``stores`` lists stream positions that are store operations.
    ``port`` binds the stream to an address/result bus pair; ``None``
    means automatic round-robin binding (stream ``i`` -> port
    ``i % ports``).  ``start_cycle`` staggers injection: the stream is
    invisible to its port until that kernel-relative cycle (default 1,
    i.e. eligible from the first cycle) — cycles spent waiting for the
    start are deliberate delay, not issue stalls.  ``modules``
    optionally gives each request's module (the plan's temporal
    distribution under the kernel's mapping); ``None`` derives them
    from the addresses.
    """

    name: str
    requests: tuple[tuple[int, int], ...]
    stores: frozenset[int] = frozenset()
    port: int | None = None
    start_cycle: int = 1
    modules: tuple[int, ...] | None = None

    @classmethod
    def of(
        cls,
        name: str,
        requests: Sequence[tuple[int, int]],
        stores: Sequence[int] = (),
        port: int | None = None,
        start_cycle: int = 1,
        modules: Sequence[int] | None = None,
    ) -> "KernelStream":
        return cls(
            name,
            tuple(requests),
            frozenset(stores),
            port,
            start_cycle,
            None if modules is None else tuple(modules),
        )


@dataclass(frozen=True)
class StreamRun:
    """Per-stream outcome of one kernel run.

    Cycle fields are kernel-relative (the run starts at cycle 1).
    ``module_request_counts`` attributes each module's load to this
    stream, so per-stream busy accounting (``service_ratio *
    count``) stays exact even when streams share modules.
    """

    name: str
    index: int
    port: int
    first_issue_cycle: int
    last_delivery_cycle: int
    issue_stall_cycles: int
    requests: RequestRecords
    module_request_counts: tuple[int, ...]
    start_cycle: int = 1

    @property
    def element_count(self) -> int:
        return len(self.requests)

    @property
    def latency(self) -> int:
        """Cycles from this stream's first issue to its last delivery."""
        return self.last_delivery_cycle - self.first_issue_cycle + 1

    @property
    def wait_count(self) -> int:
        """Requests that queued behind a busy module."""
        return self.requests.wait_count

    @property
    def conflict_free(self) -> bool:
        return self.wait_count == 0 and self.issue_stall_cycles == 0

    @property
    def result_held(self) -> bool:
        """Some result of *this stream* was delivered later than the
        first cycle it was deliverable (``finish + 1``) — held back by
        result-bus contention or ``q'`` back-pressure.  The per-stream
        counterpart of :attr:`KernelRun.bus_held_result`."""
        return self.requests.result_held


@dataclass(frozen=True)
class KernelRun:
    """Aggregate outcome of one kernel run."""

    streams: tuple[StreamRun, ...]
    total_cycles: int
    ports: int
    bus_busy_cycles: int
    bus_held_result: bool
    module_busy_cycles: tuple[int, ...]
    port_issue_cycles: tuple[int, ...] = field(default_factory=tuple)

    @property
    def aggregate_elements(self) -> int:
        return sum(stream.element_count for stream in self.streams)

    @property
    def bus_utilisation(self) -> float:
        return self.bus_busy_cycles / (self.total_cycles * self.ports)


def _conflict_free_timing(total: int, start_cycle: int, service_time: int):
    """Timing of a single stream whose module sequence is conflict-free.

    When any two requests to one module are at least ``T >= 2`` positions
    apart (the paper's Section 2 definition), every request finds its
    module idle and its input queue empty, and at most one result becomes
    ready per cycle: request ``i`` issues at ``start_cycle + i``, starts
    on arrival one cycle later and is delivered ``T`` cycles after that,
    with no stall, wait or held result.  The last delivery closes the
    run at ``start_cycle - 1 + T + L + 1`` — the ``T + L + 1`` bound.
    Returns the same tuple as :meth:`MemoryKernel._cycle_loop`.
    """
    arrival = list(range(start_cycle + 1, start_cycle + 1 + total))
    first_delivery = start_cycle + service_time + 1
    delivery = list(range(first_delivery, first_delivery + total))
    last = delivery[-1]
    return arrival, arrival, delivery, last, False, [start_cycle], [last], [0]


class MemoryKernel:
    """Cycle-level simulator of M modules fed by k ports and n streams.

    Parameters
    ----------
    config:
        Memory geometry (mapping, ``T``, buffer depths, default port
        count).
    ports:
        Address/result bus pairs; defaults to ``config.ports``.
    policy:
        How streams sharing one port take turns: ``"round_robin"``
        (rotate past the last issuer) or ``"priority"`` (lowest stream
        index first, head-of-line blocking).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Events are derived
        *after* the cycle loop from the per-request timing records, so
        the hot loop is identical with tracing on or off and a
        ``None``/null tracer costs nothing.
    """

    def __init__(
        self,
        config: MemoryConfig,
        *,
        ports: int | None = None,
        policy: str = "round_robin",
        tracer=None,
    ):
        resolved_ports = config.ports if ports is None else ports
        if not isinstance(resolved_ports, int) or isinstance(
            resolved_ports, bool
        ):
            raise ConfigurationError(
                f"kernel field 'ports' must be an integer, got "
                f"{resolved_ports!r}"
            )
        if resolved_ports < 1:
            raise ConfigurationError(
                f"kernel field 'ports' must be >= 1, got {resolved_ports}"
            )
        if resolved_ports > config.module_count:
            raise ConfigurationError(
                f"kernel field 'ports' ({resolved_ports}) cannot exceed the "
                f"module count M={config.module_count}: each port needs at "
                "least one module to talk to"
            )
        if policy not in ISSUE_POLICIES:
            raise SimulationError(f"unknown issue policy {policy!r}")
        self.config = config
        self.ports = resolved_ports
        self.policy = policy
        self.tracer = resolve_tracer(tracer)

    # -- public API -----------------------------------------------------

    def run(
        self, streams: Sequence[KernelStream | Sequence[tuple[int, int]]]
    ) -> KernelRun:
        """Simulate all streams to completion."""
        run = self._simulate(self._normalise(streams))
        if self.tracer.enabled:
            self._emit_trace(run)
        return run

    # -- stream validation ---------------------------------------------

    def _normalise(self, streams) -> list[KernelStream]:
        if not streams:
            raise SimulationError("need at least one non-empty stream")
        normalised: list[KernelStream] = []
        for index, stream in enumerate(streams):
            if isinstance(stream, KernelStream):
                normalised.append(stream)
            else:
                normalised.append(KernelStream.of(f"s{index}", stream))
        seen: set[str] = set()
        for stream in normalised:
            if not stream.requests:
                raise SimulationError("need at least one non-empty stream")
            if stream.name in seen:
                raise ConfigurationError(
                    f"kernel field 'streams' has colliding stream names: "
                    f"{stream.name!r} appears more than once (streams must "
                    "be uniquely named)"
                )
            seen.add(stream.name)
            if stream.port is not None and not (
                0 <= stream.port < self.ports
            ):
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'port' must be in "
                    f"[0, {self.ports}), got {stream.port}"
                )
            if not isinstance(stream.start_cycle, int) or isinstance(
                stream.start_cycle, bool
            ):
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'start_cycle' must be "
                    f"an integer, got {stream.start_cycle!r}"
                )
            if stream.start_cycle < 1:
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'start_cycle' must be "
                    f">= 1, got {stream.start_cycle}"
                )
            if stream.modules is not None:
                if len(stream.modules) != len(stream.requests):
                    raise ConfigurationError(
                        f"stream {stream.name!r} field 'modules' has "
                        f"{len(stream.modules)} entries for "
                        f"{len(stream.requests)} requests"
                    )
                if not (
                    0 <= min(stream.modules)
                    and max(stream.modules) < self.config.module_count
                ):
                    raise ConfigurationError(
                        f"stream {stream.name!r} field 'modules' must lie "
                        f"in [0, {self.config.module_count})"
                    )
        return normalised

    def _modules_of(self, stream: KernelStream) -> Sequence[int]:
        """Each request's module: given, or derived from its address."""
        if stream.modules is not None:
            return stream.modules
        module_of = self.config.mapping.module_of
        reduce = self.config.mapping.reduce
        return [
            module_of(reduce(address)) for _element, address in stream.requests
        ]

    # -- simulation -----------------------------------------------------

    def _simulate(self, kernel_streams: list[KernelStream]) -> KernelRun:
        """Time every request (closed form or cycle loop) and package the
        per-stream summaries."""
        config = self.config
        service_time = config.service_ratio
        module_count = config.module_count
        stream_modules = [
            self._modules_of(stream) for stream in kernel_streams
        ]
        port_of = [
            stream.port if stream.port is not None else index % self.ports
            for index, stream in enumerate(kernel_streams)
        ]
        starts = [stream.start_cycle for stream in kernel_streams]
        if (
            len(kernel_streams) == 1
            and service_time > 1
            and is_conflict_free(stream_modules[0], service_time)
        ):
            timing = _conflict_free_timing(
                len(stream_modules[0]), starts[0], service_time
            )
        else:
            timing = self._cycle_loop(stream_modules, port_of, starts)
        (
            arrival,
            start,
            delivery,
            total_cycles,
            held,
            first_issue,
            last_delivery,
            stalls,
        ) = timing

        # Every request is serviced for exactly ``T`` cycles, so busy
        # accounting is arithmetic, not per-cycle ticking.
        stream_runs: list[StreamRun] = []
        busy = [0] * module_count
        port_issues = [0] * self.ports
        low = 0
        for s_index, stream in enumerate(kernel_streams):
            modules = stream_modules[s_index]
            high = low + len(modules)
            counts = [0] * module_count
            for m in modules:
                counts[m] += 1
            for m, count in enumerate(counts):
                busy[m] += service_time * count
            port_issues[port_of[s_index]] += len(modules)
            stream_runs.append(
                StreamRun(
                    name=stream.name,
                    index=s_index,
                    port=port_of[s_index],
                    first_issue_cycle=first_issue[s_index],
                    last_delivery_cycle=last_delivery[s_index],
                    issue_stall_cycles=stalls[s_index],
                    requests=RequestRecords(
                        stream.requests,
                        modules,
                        arrival[low:high],
                        start[low:high],
                        delivery[low:high],
                        service_time,
                        stream.stores,
                        config.mapping.reduce,
                    ),
                    module_request_counts=tuple(counts),
                    start_cycle=stream.start_cycle,
                )
            )
            low = high
        return KernelRun(
            streams=tuple(stream_runs),
            total_cycles=total_cycles,
            ports=self.ports,
            bus_busy_cycles=low,
            bus_held_result=held,
            module_busy_cycles=tuple(busy),
            port_issue_cycles=tuple(port_issues),
        )

    def _cycle_loop(self, stream_modules, port_of, starts):
        """The event-driven cycle loop.

        Each cycle runs the contract's phases in order — issue, result
        delivery, module service (start before finish) — but visits only
        the modules with an event in it, and a cycle in which nothing can
        change is skipped.  Returns ``(arrival, start, delivery,
        total_cycles, held, first_issue, last_delivery, stalls)``: the
        per-request cycles over all streams in stream order, then the
        per-stream counters.
        """
        config = self.config
        service_time = config.service_ratio
        module_count = config.module_count
        input_capacity = config.input_capacity
        output_capacity = config.output_capacity
        ports = self.ports
        round_robin = self.policy == "round_robin"
        stream_count = len(stream_modules)
        last_busy = service_time - 1  # a service started at c ends at c + this

        # Requests are numbered stream by stream (rid).
        mod: list[int] = []
        stream_of: list[int] = []
        offsets: list[int] = []
        for s_index, modules in enumerate(stream_modules):
            offsets.append(len(mod))
            mod.extend(modules)
            stream_of.extend([s_index] * len(modules))
        total = len(mod)
        arrival = [0] * total
        start = [0] * total
        ready = [0] * total
        delivery = [0] * total

        # A module serves its requests in the order they were issued to
        # it, so its input queue is the window [started[m],
        # len(issued_to[m])) of that list: a counter, not a queue.
        issued_to: list[list[int]] = [[] for _ in range(module_count)]
        started = [0] * module_count
        held_results = [0] * module_count  # output-queue occupancy
        serving = [-1] * module_count  # request in service
        parked = [-1] * module_count  # finished, waiting for q' room

        port_members: list[list[int]] = [[] for _ in range(ports)]
        for s_index, port in enumerate(port_of):
            port_members[port].append(s_index)
        served_ports = [
            (port, members) for port, members in enumerate(port_members)
            if members
        ]
        # Staggered starts still ahead, latest first.
        upcoming = sorted(
            {first for first in starts if first > 1}, reverse=True
        )
        stream_len = [len(modules) for modules in stream_modules]
        cursors = [0] * stream_count
        stalls = [0] * stream_count
        first_issue = [0] * stream_count
        last_delivery = [0] * stream_count
        rotation = [0] * ports

        # Every result queued for the result bus, oldest first.  Results
        # are queued in cycle order with ``ready = cycle + 1`` and each
        # cycle's in module order, so this list stays sorted by (ready,
        # module): its front is the oldest-first grant over all module
        # heads.
        results: list[int] = []
        front = 0
        queued_total = 0  # len(results)
        # Cycle -> modules whose state can change in that cycle's
        # service phase.  A module has at most one pending event.
        events: dict[int, list[int]] = {}

        cycle = 0
        guard = (total + 2) * (service_time + 2) + 64 + max(starts) - 1
        delivered = 0
        held = False
        advance = True
        solo = stream_count == 1
        stalled: Sequence[int] = ()  # streams that failed to issue
        while delivered < total:
            if advance:
                cycle += 1
            else:
                # Nothing can change before the next scheduled event, so
                # jump there; the streams that failed to issue fail again
                # in every skipped cycle.
                next_cycle = min(events) if events else guard + 1
                if front < queued_total:
                    head_ready = ready[results[front]]
                    if head_ready <= cycle:
                        head_ready = cycle + 1
                    if head_ready < next_cycle:
                        next_cycle = head_ready
                while upcoming and upcoming[-1] <= cycle:
                    upcoming.pop()
                if upcoming and upcoming[-1] < next_cycle:
                    next_cycle = upcoming[-1]
                if next_cycle > guard:
                    raise SimulationError(
                        f"simulation exceeded {guard} cycles for {total} "
                        f"requests — livelock?"
                    )
                for s in stalled:
                    stalls[s] += next_cycle - cycle - 1
                cycle = next_cycle

            # 1. Address ports: one request per port per cycle.  A
            # stream whose head module's input queue is full stalls;
            # ``blocking`` collects those modules.
            issued = False
            stalled = blocking = ()
            for port, members in served_ports:
                if solo:
                    if cursors[0] == total or starts[0] > cycle:
                        continue
                    candidates = members
                else:
                    candidates = [
                        s
                        for s in members
                        if cursors[s] < stream_len[s] and starts[s] <= cycle
                    ]
                    if not candidates:
                        continue
                    if round_robin and len(candidates) > 1:
                        rot = rotation[port]
                        candidates.sort(
                            key=lambda s: (s - rot) % stream_count
                        )
                for s in candidates:
                    position = cursors[s]
                    rid = offsets[s] + position
                    m = mod[rid]
                    queue = issued_to[m]
                    queued = len(queue) - started[m]
                    if queued < input_capacity:
                        arrival[rid] = cycle + 1
                        if queued == 0 and serving[m] < 0 and parked[m] < 0:
                            events.setdefault(cycle + 1, []).append(m)
                        queue.append(rid)
                        if position == 0:
                            first_issue[s] = cycle
                        cursors[s] = position + 1
                        rotation[port] = s + 1
                        issued = True
                        break
                    stalls[s] += 1
                    if not stalled:
                        stalled, blocking = [], []
                    stalled.append(s)
                    blocking.append(m)
                    if not round_robin:
                        break
            advance = issued

            # 2. Result ports: up to ``ports`` deliveries, oldest first.
            if front < queued_total and ready[results[front]] <= cycle:
                end = queued_total
                if (
                    not held
                    and front + 1 < end
                    and ready[results[front + 1]] <= cycle
                ):
                    # Held back iff more modules have a ready result than
                    # there are ports to deliver them.
                    ready_modules = set()
                    for position in range(front, end):
                        rid = results[position]
                        if ready[rid] > cycle:
                            break
                        ready_modules.add(mod[rid])
                        if len(ready_modules) > ports:
                            held = True
                            break
                grants = 0
                while (
                    grants < ports
                    and front < end
                    and ready[results[front]] <= cycle
                ):
                    rid = results[front]
                    front += 1
                    delivery[rid] = cycle
                    last_delivery[stream_of[rid]] = cycle
                    m = mod[rid]
                    held_results[m] -= 1
                    if (
                        parked[m] >= 0
                        and held_results[m] == output_capacity - 1
                    ):
                        events.setdefault(cycle, []).append(m)
                    grants += 1
                delivered += grants

            # 3. Module service: each module with an event this cycle
            # starts new work, then retires finishing work.
            due = events.pop(cycle, None)
            if due is None:
                continue
            first_new = queued_total
            for m in due:
                rid = serving[m]
                if rid >= 0:
                    serving[m] = -1  # its service ends this cycle
                elif parked[m] >= 0:
                    # A delivery freed an output slot for the parked
                    # result.
                    rid = parked[m]
                    parked[m] = -1
                else:
                    # Idle with its head request arrived: start it.
                    rid = issued_to[m][started[m]]
                    started[m] += 1
                    start[rid] = cycle
                    if m in blocking:
                        advance = True  # a stalled stream can issue now
                    if service_time > 1:
                        serving[m] = rid
                        events.setdefault(cycle + last_busy, []).append(m)
                        continue
                # ``rid`` leaves the module at the end of this cycle,
                # unless its output queue is full.
                if held_results[m] < output_capacity:
                    ready[rid] = cycle + 1
                    results.append(rid)
                    queued_total += 1
                    held_results[m] += 1
                    if started[m] < len(issued_to[m]):
                        events.setdefault(cycle + 1, []).append(m)
                else:
                    parked[m] = rid
            if queued_total - first_new > 1:
                # Results queued in one cycle share their ready cycle;
                # the lower module index goes first.
                results[first_new:] = sorted(
                    results[first_new:], key=mod.__getitem__
                )
        return (
            arrival,
            start,
            delivery,
            cycle,
            held,
            first_issue,
            last_delivery,
            stalls,
        )

    # -- trace emission -------------------------------------------------

    def _emit_trace(self, run: KernelRun) -> None:
        """Derive module/port/stream events from the finished run.

        Runs only when tracing is enabled; everything is read off the
        :class:`~repro.memory.module.InFlightRequest` records, so it
        adds zero work to the cycle loop.  Tracks follow the
        ``group/lane`` convention of :mod:`repro.obs.tracer`:
        ``streams/<name>`` spans the stream's active window, ``memory/
        module <m>`` spans each request's service occupancy, ``ports/
        port <p>`` carries issue and delivery instants, and ``memory/in
        flight`` samples the number of outstanding requests.
        """
        tracer = self.tracer
        deltas: list[tuple[int, int]] = []
        for stream in run.streams:
            tracer.span(
                f"streams/{stream.name}",
                f"{stream.name} ({stream.element_count} elem)",
                stream.first_issue_cycle,
                stream.last_delivery_cycle,
                port=stream.port,
                start_cycle=stream.start_cycle,
                issue_stalls=stream.issue_stall_cycles,
                conflict_free=stream.conflict_free,
            )
            for request in stream.requests:
                tracer.span(
                    f"memory/module {request.module}",
                    f"{stream.name}[{request.element_index}]",
                    request.start_cycle,
                    request.finish_cycle,
                    address=request.address,
                    store=request.is_store,
                    waited=request.waited,
                )
                tracer.instant(
                    f"ports/port {stream.port}",
                    "issue",
                    request.issue_cycle,
                    stream=stream.name,
                    element=request.element_index,
                )
                tracer.instant(
                    f"ports/port {stream.port}",
                    "deliver",
                    request.delivery_cycle,
                    stream=stream.name,
                    element=request.element_index,
                )
                deltas.append((request.issue_cycle, 1))
                deltas.append((request.delivery_cycle, -1))
        deltas.sort()
        level = 0
        previous: int | None = None
        for at_cycle, delta in deltas:
            if previous is not None and at_cycle != previous:
                tracer.counter(
                    "memory/in flight", "in_flight", previous, level
                )
            level += delta
            previous = at_cycle
        if previous is not None:
            tracer.counter("memory/in flight", "in_flight", previous, level)
