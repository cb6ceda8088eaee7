"""The one memory kernel: M modules × k ports × n streams, cycle-level.

Every cycle-accurate memory simulation in the library runs through
:class:`MemoryKernel`.  It generalises the Figure 2 machine along the
two axes the paper's Section 6 defers to future work:

* ports — ``k = config.ports >= 1`` address/result bus pairs.  Each
  port carries at most one request and one result per cycle, so ``k``
  requests can enter and ``k`` results can return per cycle (module
  bandwidth permitting);
* streams — ``n >= 1`` named request sequences; stream ``i`` issues on
  port ``i % k`` from cycle 1.  Streams sharing a port take turns
  round-robin; streams on different ports issue concurrently.

``MemoryKernel(config).run(streams)`` is the way to run several
streams.  It reports each stream's outcome as one :class:`AccessResult`,
which :class:`~repro.memory.system.MemorySystem`, the single-stream view
(``n = 1``), returns as it is.  The equivalence suite in
``tests/memory/test_kernel.py`` drives the kernel against a reference
transcription of the per-cycle loops it replaced.

Timing contract (per port):

* one request per port per cycle; a stream whose head request targets a
  module with a full input queue stalls and yields the port to the next
  stream;
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

Performance: per-request timing lives in flat sequences, and the
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

A single stream whose module sequence repeats with a short period (a
stride family's temporal distribution has period ``Px``) costs its
transient plus its tail.  The loop snapshots its state at each period
boundary, relative to the current cycle and the stream cursor.  The
loop is deterministic, that relative state is finite and the input
repeats, so once a snapshot recurs the run from there is the stretch
between the two snapshots over and over: the loop writes those repeats'
timings by shifting the stretch, moves its state past them and
simulates only the tail.  Section 5-B's steady-state cost per element
is that stretch's cycles over its requests.  Several streams always run
the plain loop.

A run's timing, :func:`kernel_timing`, is a function of exactly what it
reads (``T``, ``M``, ``q``, ``q'``, the ports and each stream's module
sequence) behind one bounded LRU memo.  The closed form and the loop
return only each request's arrival, start and delivery cycles and each
stream's issue stalls; everything else is derived from those once per
entry, the same way for both.  An entry (:class:`KernelTiming`) holds
the run's total cycles, held-result flag, module busy cycles and port
issues, and each stream's finished timing (:class:`StreamTiming`): its
module busy cycles, wait count, held-result flag, first issue and last
delivery, and its own arrival, start and delivery cycles (the run's
sequences for a single stream, slices of them otherwise; a closed-form
entry keeps them as ``range`` objects).  The module range check, the
conflict-freedom check, the loop, the derivations and the slicing
therefore run once per distinct input: a strip-mined program, or a grid
whose points time one program's memory batches on the same memory, pays
for that batch's timing once, and so does a chaining baseline that is
timed (its batches are the chained run's).  A hit shares its entry,
which is immutable, and costs the key's hash plus, per stream, the
:class:`AccessResult` and :class:`~repro.memory.module.RequestRecords`
that :class:`MemoryKernel` wraps around the stream's timing.  An error
is never memoised, so a stream whose ``modules`` leave ``[0, M)`` is
refused on every call.
``benchmarks/bench_simulator_perf.py`` tracks the resulting throughput.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from repro.core.distributions import is_conflict_free
from repro.core.gather import IndexedPlan
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.module import RequestRecords, count_waits, results_held
from repro.obs.tracer import resolve_tracer


class PlanRequests(Sequence):
    """A plan's ``(element_index, address)`` pairs in issue order, each
    derived when it is read: the one view
    :meth:`~repro.memory.system.MemorySystem.run_plan` hands the kernel.

    ``plan`` is a strided :class:`~repro.core.planner.AccessPlan` or a
    gather's :class:`~repro.core.gather.IndexedPlan`.  Element ``i``'s
    address is the access's base plus its offset, ``stride * i`` for a
    strided vector (a ``range``) and ``indices[i]`` for a gather, as
    the access's ``address_of`` computes it.  The issue order's range
    is checked once, here: an element outside the access raises the
    :class:`~repro.errors.VectorSpecError` that the access's
    ``address_of`` raises for it.  Reading every pair gives
    ``plan.request_stream()``.
    """

    __slots__ = ("_order", "_base", "_offsets")

    def __init__(self, plan):
        if isinstance(plan, IndexedPlan):
            access, order = plan.access, plan.order
            offsets = access.indices
        else:
            access, order = plan.vector, plan.order.indices
            offsets = range(0, access.stride * access.length, access.stride)
        length = access.length
        if order and not (0 <= min(order) and max(order) < length):
            access.address_of(next(i for i in order if not 0 <= i < length))
        self._order = order
        self._base = access.base
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, position: int) -> tuple[int, int]:
        element = self._order[position]
        return element, self._base + self._offsets[element]

    def __iter__(self):
        base, offsets = self._base, self._offsets
        for element in self._order:
            yield element, base + offsets[element]


@dataclass(frozen=True)
class KernelStream:
    """One named request stream.

    ``requests`` are ``(element_index, address)`` pairs in issue order
    (addresses are reduced through the mapping by the kernel): a tuple,
    or a plan's :class:`PlanRequests` view, which the stream keeps as it
    is.
    ``stores`` holds the stream positions that are store operations: a
    ``range`` (a vector store's ``range(length)``, built once with its
    stream) or a frozenset, which :meth:`of` makes of any other
    sequence.
    ``modules`` optionally gives each request's module (the plan's
    temporal distribution under the kernel's mapping); ``None`` derives
    them from the addresses.
    """

    name: str
    requests: Sequence[tuple[int, int]]
    stores: range | frozenset[int] = frozenset()
    modules: tuple[int, ...] | None = None

    @classmethod
    def of(
        cls,
        name: str,
        requests: Sequence[tuple[int, int]],
        stores: Sequence[int] = (),
        modules: Sequence[int] | None = None,
    ) -> "KernelStream":
        return cls(
            name,
            (
                requests
                if isinstance(requests, PlanRequests)
                else tuple(requests)
            ),
            frozenset(stores),
            None if modules is None else tuple(modules),
        )


@dataclass(frozen=True)
class AccessResult:
    """One memory stream's outcome: what a kernel run reports for each
    of its streams, and what
    :class:`~repro.memory.system.MemorySystem` returns for its one.

    Cycle fields are kernel-relative (the run starts at cycle 1).
    ``port`` is the port the stream issued on (stream ``index`` uses
    port ``index % ports``).  ``requests`` are the per-request timing
    records in issue order, built on first read (:attr:`wait_count`
    and :attr:`result_held` do not need them).  ``module_busy_cycles``
    is this stream's load on each module, ``T`` cycles per request, so
    per-stream busy accounting stays exact even when streams share
    modules.
    """

    name: str
    index: int
    port: int
    first_issue_cycle: int
    last_delivery_cycle: int
    issue_stall_cycles: int
    requests: RequestRecords
    module_busy_cycles: tuple[int, ...]

    @property
    def element_count(self) -> int:
        return len(self.requests)

    @property
    def latency(self) -> int:
        """Cycles from this stream's first issue to its last delivery."""
        return self.last_delivery_cycle - self.first_issue_cycle + 1

    @property
    def cycles_per_element(self) -> float:
        """Average issue-to-drain cost per element."""
        return self.latency / self.element_count

    @property
    def wait_count(self) -> int:
        """Requests that queued behind a busy module."""
        return self.requests.wait_count

    @property
    def result_held(self) -> bool:
        """Some result of *this stream* was delivered later than the
        first cycle it was deliverable (``finish + 1``) — held back by
        result-bus contention or ``q'`` back-pressure.  The per-stream
        counterpart of :attr:`KernelRun.bus_held_result`."""
        return self.requests.result_held

    @property
    def conflict_free(self) -> bool:
        """The one conflict-freedom rule for a stream, the dynamic
        counterpart of the paper's Section 2 definition: no request
        waited for a busy module, the stream never stalled at issue and
        no result was held.  A run's only stream that keeps it takes
        exactly ``T + L + 1`` cycles."""
        return (
            self.wait_count == 0
            and self.issue_stall_cycles == 0
            and not self.result_held
        )

    def delivery_order(self) -> list[int]:
        """Element indices in the order their data returned."""
        ordered = sorted(self.requests, key=lambda r: r.delivery_cycle)
        return [request.element_index for request in ordered]

    def excess_latency(self, service_ratio: int) -> int:
        """Latency above the conflict-free minimum ``T + L + 1``."""
        return self.latency - (service_ratio + self.element_count + 1)


@dataclass(frozen=True)
class KernelRun:
    """Aggregate outcome of one kernel run: one :class:`AccessResult`
    per stream, in stream order, and the run's totals."""

    streams: tuple[AccessResult, ...]
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
        """Share of the ``ports * total_cycles`` address-bus slots that
        carried a request (at most 1)."""
        return self.bus_busy_cycles / (self.total_cycles * self.ports)


def _conflict_free_timing(total: int, service_time: int):
    """Timing of a single stream whose module sequence is conflict-free.

    When any two requests to one module are at least ``T >= 2`` positions
    apart (the paper's Section 2 definition), every request finds its
    module idle and its input queue empty, and at most one result becomes
    ready per cycle: request ``i`` (0-based) issues at cycle ``i + 1``,
    starts on arrival one cycle later and is delivered ``T`` cycles after
    that, with no stall, wait or held result.  The last delivery closes
    the run at ``T + L + 1`` — the paper's bound.  Returns the same fields
    as :func:`cycle_loop`, the per-request cycles as ``range`` objects.
    """
    arrival = range(2, 2 + total)
    delivery = range(service_time + 2, service_time + 2 + total)
    return arrival, arrival, delivery, (0,)


#: Period boundaries at which :func:`cycle_loop` snapshots a periodic
#: single stream before it stops looking for a repeat.  Every seed-1
#: access-sweep run that repeated did so by boundary 34.
SNAPSHOT_LIMIT = 64


def _stream_period(modules: tuple[int, ...]) -> int:
    """The smallest power of two ``P <= L/4`` with ``modules[P:] ==
    modules[:-P]``, or 0 if there is none."""
    period = 1
    while 4 * period <= len(modules):
        if modules[period:] == modules[:-period]:
            return period
        period <<= 1
    return 0


def _relative_state(
    position, cycle, period_modules, issued_to, started, serving, parked,
    held_results, results, ready, events,
):
    """A single stream's loop state right after an issue phase, with
    requests relative to the cursor ``position`` and cycles to
    ``cycle``: everything the rest of the run reads.

    Per module of the period: its queued requests, the request in
    service, any parked result and its output-queue occupancy.  Then
    the undelivered results with their ready offsets, and the pending
    events as sets of modules per cycle offset (order within a cycle
    does not matter: each cycle's new results are re-sorted by module).
    No held-result flag: :func:`kernel_timing` derives it once from the
    finished request cycles, like the first and last cycles.
    """
    return (
        tuple(
            (
                tuple(rid - position for rid in issued_to[m][started[m]:]),
                serving[m] - position if serving[m] >= 0 else None,
                parked[m] - position if parked[m] >= 0 else None,
                held_results[m],
            )
            for m in period_modules
        ),
        tuple((rid - position, ready[rid] - cycle) for rid in results),
        frozenset(
            (when - cycle, frozenset(due)) for when, due in events.items()
        ),
    )


def _lowest_named(state) -> int:
    """The lowest request a relative state names, relative to its cursor.

    Every request issued before the snapshot and not named in it was
    delivered before the snapshot's cycle.
    """
    period_modules, results, _events = state
    named = [rid for rid, _ready in results]
    for queue, serving, parked, _occupancy in period_modules:
        named.extend(queue)
        named.extend(rid for rid in (serving, parked) if rid is not None)
    return min(named)


def _copy_repeats(timings, lowest, earlier, later, count):
    """Write ``count`` repeats of one steady-state window into ``timings``.

    ``earlier`` and ``later`` are the ``(cursor, cycle)`` of two period
    boundaries with equal relative states, so the run repeats every
    ``R`` requests and ``D`` cycles between them.  Each issue in the
    window (requests ``earlier`` cursor .. ``later`` cursor - 1, whose
    arrival is the issue cycle + 1) and each start, ready and delivery
    in ``[earlier cycle, later cycle)`` is copied to the requests ``R,
    2R, ... count*R`` later, ``D, 2D, ... count*D`` cycles later.  The
    scan starts at ``lowest``, the lowest request the earlier snapshot
    names: every request below it was delivered before the window.
    """
    arrival, start, ready, delivery = timings
    (mark, mark_cycle), (position, cycle) = earlier, later
    repeat, cycles = position - mark, cycle - mark_cycle
    last, lag = count * repeat, count * cycles

    def copy(times, rid):
        value = times[rid]
        times[rid + repeat:rid + last + 1:repeat] = range(
            value + cycles, value + lag + 1, cycles
        )

    for rid in range(mark, position):
        copy(arrival, rid)
    # A result is made ready in the service phase of cycle ``ready - 1``.
    for times, low in (
        (start, mark_cycle), (ready, mark_cycle + 1), (delivery, mark_cycle)
    ):
        high = low + cycles
        for rid in range(lowest, position):
            if low <= times[rid] < high:
                copy(times, rid)


def cycle_loop(
    service_time, module_count, input_capacity, output_capacity, ports, stream_modules
):
    """The event-driven cycle loop, a function of exactly what it reads.

    Each cycle runs the contract's phases in order — issue, result
    delivery, module service (start before finish) — but visits only
    the modules with an event in it, and a cycle in which nothing can
    change is skipped.  ``stream_modules`` is a tuple of each stream's
    module tuple.  Returns ``(arrival, start, delivery, stalls)``: the
    per-request cycles over all streams in stream order, then each
    stream's issue stalls, which those cycles do not record.
    :func:`kernel_timing` derives each stream's held-result flag and
    first and last cycles from them once and memoises the lot; memo
    hits share the result, so every sequence in it is a tuple.

    Steady-state skip.  Precondition: one stream (on any port count)
    whose modules repeat with a power-of-two period ``P <= L/4``
    (:func:`_stream_period`).  Right after each issue phase that brings
    the cursor to a multiple of ``P``, the loop keys its state relative
    to the cycle and cursor (:func:`_relative_state`); after
    :data:`SNAPSHOT_LIMIT` keys without a repeat it stops looking.  Two
    equal keys ``R`` requests and ``D`` cycles apart mean the rest of
    the run repeats that window while requests last, because the loop
    reads nothing else and the requests ahead repeat every ``P``.  The
    loop then copies ``n = (L - cursor) // R`` repeats
    (:func:`_copy_repeats`), grows the stall and delivered counts by
    ``n`` window deltas, shifts every live request by ``nR`` and every
    cycle by ``nD``, and simulates the tail.  Its result is the plain
    loop's, field for field.
    """
    stream_count = len(stream_modules)
    last_busy = service_time - 1  # a service started at c ends at c + this

    # Requests are numbered stream by stream (rid).
    mod: list[int] = []
    offsets: list[int] = []
    for modules in stream_modules:
        offsets.append(len(mod))
        mod.extend(modules)
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

    # Stream ``s`` issues on port ``s % ports``; a port that serves one
    # stream (``only``) issues from it without taking turns.
    served_ports = []
    for port in range(min(ports, stream_count)):
        members = list(range(port, stream_count, ports))
        served_ports.append(
            (port, members, members[0] if len(members) == 1 else None)
        )
    stream_len = [len(modules) for modules in stream_modules]
    cursors = [0] * stream_count
    stalls = [0] * stream_count
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
    guard = (total + 2) * (service_time + 2) + 64
    delivered = 0
    advance = True
    stalled: Sequence[int] = ()  # streams that failed to issue

    # A single stream whose modules repeat every ``period`` requests is
    # snapshotted at each period boundary: relative state -> (cursor,
    # cycle, stalls, delivered).  None once it stops looking.
    boundaries: dict | None = None
    period = _stream_period(stream_modules[0]) if stream_count == 1 else 0
    if period:
        boundaries = {}
        period_modules = sorted(set(stream_modules[0][:period]))
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
            if next_cycle > guard:
                raise SimulationError(
                    f"simulation exceeded {guard} cycles for {total} "
                    f"requests — livelock?"
                )
            for s in stalled:
                stalls[s] += next_cycle - cycle - 1
            cycle = next_cycle

        # 1. Address ports: one request per port per cycle.  A
        # stream whose head module's input queue is full stalls and
        # yields the port; ``blocking`` collects those modules.
        issued = False
        stalled = blocking = ()
        for port, members, only in served_ports:
            if only is not None:
                if cursors[only] == stream_len[only]:
                    continue
                candidates = members
            else:
                candidates = [
                    s for s in members if cursors[s] < stream_len[s]
                ]
                if not candidates:
                    continue
                if len(candidates) > 1:
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
                    cursors[s] = position + 1
                    rotation[port] = s + 1
                    issued = True
                    break
                stalls[s] += 1
                if not stalled:
                    stalled, blocking = [], []
                stalled.append(s)
                blocking.append(m)
        advance = issued

        if boundaries is not None and issued and cursors[0] % period == 0:
            position = cursors[0]
            state = _relative_state(
                position, cycle, period_modules, issued_to, started, serving,
                parked, held_results, results[front:], ready, events,
            )
            earlier = boundaries.get(state)
            if earlier is None:
                if len(boundaries) < SNAPSHOT_LIMIT:
                    boundaries[state] = (position, cycle, stalls[0], delivered)
                else:
                    boundaries = None
            else:
                # The run repeats from here: copy ``count`` whole
                # repeats, shift the state past them and simulate the
                # tail.  Every copied issue exists.
                boundaries = None
                mark, mark_cycle, mark_stalls, mark_delivered = earlier
                count = (total - position) // (position - mark)
                if count:
                    _copy_repeats(
                        (arrival, start, ready, delivery),
                        mark + _lowest_named(state),
                        (mark, mark_cycle), (position, cycle), count,
                    )
                    shift = count * (position - mark)
                    lag = count * (cycle - mark_cycle)
                    stalls[0] += count * (stalls[0] - mark_stalls)
                    delivered += count * (delivered - mark_delivered)
                    cycle += lag
                    cursors[0] = position + shift
                    for m in period_modules:
                        issued_to[m] = [
                            rid + shift for rid in issued_to[m][started[m]:]
                        ]
                        started[m] = 0
                        if serving[m] >= 0:
                            serving[m] += shift
                        if parked[m] >= 0:
                            parked[m] += shift
                    results = [rid + shift for rid in results[front:]]
                    front, queued_total = 0, len(results)
                    events = {
                        when + lag: due for when, due in events.items()
                    }

        # 2. Result ports: up to ``ports`` deliveries, oldest first.
        if front < queued_total and ready[results[front]] <= cycle:
            grants = 0
            while (
                grants < ports
                and front < queued_total
                and ready[results[front]] <= cycle
            ):
                rid = results[front]
                front += 1
                delivery[rid] = cycle
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
    return tuple(arrival), tuple(start), tuple(delivery), tuple(stalls)


#: Capacity of the :func:`kernel_timing` memo, whose entries are closed
#: forms and loop runs alike.  The 128 seed-1 program-grid benchmark
#: points run the kernel 1592 times on 145 distinct inputs (their
#: chaining baselines reuse a non-chaining sibling's cycles); replayed
#: through an LRU in the lab's job order, 8 entries leave 368 loop runs,
#: 16 leave 256, 24 leave 154, 32 leave 118, 36 and 38 leave 117 and 40
#: or more leave 116 (1438 hits and 154 misses at 40).  The 1152
#: access-sweep points run it 714 times on 531 distinct inputs, which
#: every size from 8 up answers with 402 loop runs.  An entry holds each
#: stream's request timings (a closed form's as ranges), so the loop
#: entries set the memo's size.  With those per-stream entries, the
#: in-process peak RSS of a seed-1 lab pass (the 24 or 16 grids swept
#: in one interpreter) is 31.2-31.4 MB for access-sweep and
#: 27.1-27.4 MB for program-grid at each of 32, 40 and 48 entries
#: (31.2-31.4 and 27.0-27.2 MB with the entries they replaced; two
#: passes each, CPython 3.11, 2-CPU host).
LOOP_MEMO_SIZE = 40


class StreamTiming(NamedTuple):
    """One stream's finished timing, as a :func:`kernel_timing` entry
    holds it: its busy cycles per module (``T`` per request), its
    requests' arrival, start and delivery cycles (the run's own
    sequences for a single stream, slices of them otherwise) and its
    issue stalls, plus what :func:`kernel_timing` derives from those
    cycles once per entry: its wait count, held-result flag
    (:func:`~repro.memory.module.results_held`), first issue and last
    delivery."""

    module_busy: tuple[int, ...]
    wait_count: int
    result_held: bool
    arrival: Sequence[int]
    start: Sequence[int]
    delivery: Sequence[int]
    first_issue: int
    last_delivery: int
    issue_stalls: int


class KernelTiming(NamedTuple):
    """A :func:`kernel_timing` entry: the run's total cycles and
    held-result flag (its streams' latest last delivery and any of
    their flags), each module's busy cycles, each port's issues, the
    request count and each stream's :class:`StreamTiming`."""

    total_cycles: int
    held: bool
    module_busy: tuple[int, ...]
    port_issues: tuple[int, ...]
    requests: int
    streams: tuple[StreamTiming, ...]


class _ModulesOutOfRange(Exception):
    """Stream ``index`` of a :func:`kernel_timing` input names a module
    outside ``[0, M)``; the kernel refuses it by the stream's name."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


def _modules_in_range(modules: Sequence[int], module_count: int) -> bool:
    return 0 <= min(modules) and max(modules) < module_count


def _stream_refusal(
    stream: KernelStream, seen: set[str]
) -> ReproError | None:
    """The error for the first rule before the module range that
    ``stream`` breaks (``seen`` holds the names before it), or ``None``."""
    if not stream.requests:
        return SimulationError("need at least one non-empty stream")
    if stream.name in seen:
        return ConfigurationError(
            f"kernel field 'streams' has colliding stream names: "
            f"{stream.name!r} appears more than once (streams must be "
            "uniquely named)"
        )
    if stream.modules is not None and len(stream.modules) != len(
        stream.requests
    ):
        return ConfigurationError(
            f"stream {stream.name!r} field 'modules' has "
            f"{len(stream.modules)} entries for {len(stream.requests)} "
            "requests"
        )
    return None


@lru_cache(maxsize=LOOP_MEMO_SIZE)
def kernel_timing(
    service_time, module_count, input_capacity, output_capacity, ports, stream_modules
) -> KernelTiming:
    """Everything a kernel run computes from its module sequences, a
    function of exactly what it reads.

    ``stream_modules`` is a tuple of each stream's module tuple; a
    module outside ``[0, M)`` raises :class:`_ModulesOutOfRange` before
    anything runs, and an error is not memoised.  A single stream whose
    module sequence is conflict-free (``T >= 2``) takes the closed form
    (:func:`_conflict_free_timing`); anything else runs
    :func:`cycle_loop`.  Both return only the per-request cycles and the
    issue stalls, and everything else is derived from those here, the
    same way for either: a stream's first issue is one cycle before its
    first arrival, its last delivery is its latest delivery cycle and
    its held flag is :func:`~repro.memory.module.results_held`; the
    run's total cycles and held flag are the latest last delivery and
    any stream's flag.  Busy accounting is arithmetic (every request is
    serviced for exactly ``T`` cycles), not per-cycle ticking.  Memo
    hits share the result, so every sequence in it is immutable.
    """
    for index, modules in enumerate(stream_modules):
        if not _modules_in_range(modules, module_count):
            raise _ModulesOutOfRange(index)
    if (
        len(stream_modules) == 1
        and service_time > 1
        and is_conflict_free(stream_modules[0], service_time)
    ):
        timing = _conflict_free_timing(len(stream_modules[0]), service_time)
    else:
        timing = cycle_loop(
            service_time, module_count, input_capacity, output_capacity,
            ports, stream_modules,
        )
    arrival, start, delivery, stalls = timing
    streams = []
    busy = [0] * module_count
    port_issues = [0] * ports
    low = 0
    for index, modules in enumerate(stream_modules):
        high = low + len(modules)
        # A single stream's slices are the run's own sequences.
        own_arrival = arrival[low:high]
        own_start = start[low:high]
        own_delivery = delivery[low:high]
        counts = [0] * module_count
        for m in modules:
            counts[m] += 1
        own_busy = tuple(service_time * count for count in counts)
        for m, cycles in enumerate(own_busy):
            busy[m] += cycles
        port_issues[index % ports] += len(modules)
        streams.append(
            StreamTiming(
                own_busy,
                count_waits(own_arrival, own_start),
                results_held(own_start, own_delivery, service_time),
                own_arrival,
                own_start,
                own_delivery,
                own_arrival[0] - 1,
                max(own_delivery),
                stalls[index],
            )
        )
        low = high
    return KernelTiming(
        max(stream.last_delivery for stream in streams),
        any(stream.result_held for stream in streams),
        tuple(busy), tuple(port_issues), low, tuple(streams),
    )


class MemoryKernel:
    """Cycle-level simulator of M modules fed by k ports and n streams.

    Parameters
    ----------
    config:
        Memory geometry: mapping, ``T``, buffer depths and the port
        count ``config.ports``.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Events are derived
        *after* the cycle loop from the per-request timing records, so
        the hot loop is identical with tracing on or off and a
        ``None``/null tracer costs nothing.
    """

    def __init__(self, config: MemoryConfig, *, tracer=None):
        self.config = config
        self.tracer = resolve_tracer(tracer)

    # -- public API -----------------------------------------------------

    def run(
        self, streams: Sequence[KernelStream | Sequence[tuple[int, int]]]
    ) -> KernelRun:
        """Simulate all streams to completion."""
        run = self._simulate(*self._normalise(streams))
        if self.tracer.enabled:
            self._emit_trace(run)
        return run

    # -- stream validation ---------------------------------------------

    def _normalise(
        self, streams
    ) -> tuple[list[KernelStream], tuple[tuple[int, ...], ...]]:
        """Each stream as a :class:`KernelStream`, and its modules.

        Stream by stream, the rules are: it has requests, a unique name,
        one module per request and modules in ``[0, M)``.
        :func:`kernel_timing` applies the last, on a memo miss only (a
        hit's input passed it), so before this refuses a stream for
        another rule, or derives modules from addresses (which may
        fail), it applies the range rule to the streams before.
        """
        if not streams:
            raise SimulationError("need at least one non-empty stream")
        normalised: list[KernelStream] = []
        for index, stream in enumerate(streams):
            if isinstance(stream, KernelStream):
                normalised.append(stream)
            else:
                normalised.append(KernelStream.of(f"s{index}", stream))
        seen: set[str] = set()
        derived = False
        for index, stream in enumerate(normalised):
            refusal = _stream_refusal(stream, seen)
            if refusal is not None:
                self._check_module_range(normalised[:index])
                raise refusal
            seen.add(stream.name)
            derived = derived or stream.modules is None
        if derived:
            self._check_module_range(normalised)
        return normalised, tuple(map(self._modules_of, normalised))

    def _check_module_range(self, streams: list[KernelStream]) -> None:
        """Refuse the first stream whose given modules leave ``[0, M)``."""
        for stream in streams:
            if stream.modules is not None and not _modules_in_range(
                stream.modules, self.config.module_count
            ):
                raise self._range_error(stream)

    def _range_error(self, stream: KernelStream) -> ConfigurationError:
        return ConfigurationError(
            f"stream {stream.name!r} field 'modules' must lie "
            f"in [0, {self.config.module_count})"
        )

    def _modules_of(self, stream: KernelStream) -> tuple[int, ...]:
        """Each request's module: given, or derived from its address."""
        if stream.modules is not None:
            return stream.modules
        return tuple(
            self.config.mapping.modules_of(
                address for _element, address in stream.requests
            )
        )

    # -- simulation -----------------------------------------------------

    def _simulate(
        self,
        kernel_streams: list[KernelStream],
        stream_modules: tuple[tuple[int, ...], ...],
    ) -> KernelRun:
        """Look the run's timing up (closed form or cycle loop, memoised)
        and wrap each stream's finished timing in its records."""
        config = self.config
        service_time = config.service_ratio
        ports = config.ports
        try:
            total_cycles, held, busy, port_issues, requests, timings = (
                kernel_timing(
                    service_time, config.module_count, config.input_capacity,
                    config.output_capacity, ports, stream_modules,
                )
            )
        except _ModulesOutOfRange as error:
            raise self._range_error(kernel_streams[error.index]) from None
        reduce = config.mapping.reduce
        results = []
        for index, (stream, modules, timing) in enumerate(
            zip(kernel_streams, stream_modules, timings)
        ):
            (
                own_busy, waits, stream_held, arrival, start, delivery,
                first_issue, last_delivery, stalls,
            ) = timing
            results.append(
                AccessResult(
                    name=stream.name,
                    index=index,
                    port=index % ports,
                    first_issue_cycle=first_issue,
                    last_delivery_cycle=last_delivery,
                    issue_stall_cycles=stalls,
                    requests=RequestRecords(
                        stream.requests, modules, arrival, start, delivery,
                        service_time, waits, stream_held, stream.stores,
                        reduce,
                    ),
                    module_busy_cycles=own_busy,
                )
            )
        return KernelRun(
            streams=tuple(results),
            total_cycles=total_cycles,
            ports=ports,
            bus_busy_cycles=requests,
            bus_held_result=held,
            module_busy_cycles=busy,
            port_issue_cycles=port_issues,
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
