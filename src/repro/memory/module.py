"""Per-request timing records of a memory simulation.

:class:`InFlightRequest` is one request's full timing record.  The
kernel does not build one per request while it simulates: it keeps the
cycles in flat arrays and hands back :class:`RequestRecords`, a
read-only sequence that answers the aggregate questions (how many
requests waited, whether a result was held back, when each request was
delivered) from those arrays, or from the wait count and held-result
flag the kernel's timing memo derives from them once, and materialises
the records only when a caller reads them, such as a timeline or a
trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import ne, sub
from typing import Callable

from repro.errors import SimulationError


@dataclass
class InFlightRequest:
    """One memory request with its full timing record.

    Cycle fields are filled in as the request progresses; ``None`` means
    the event has not happened yet.
    """

    element_index: int
    address: int
    module: int
    is_store: bool = False
    issue_cycle: int | None = None
    arrival_cycle: int | None = None
    start_cycle: int | None = None
    finish_cycle: int | None = None
    delivery_cycle: int | None = None

    @property
    def waited(self) -> bool:
        """True when the request found its module busy (a conflict)."""
        if self.arrival_cycle is None or self.start_cycle is None:
            raise SimulationError("request timing incomplete")
        return self.start_cycle != self.arrival_cycle

    @property
    def latency(self) -> int:
        """Cycles from issue to delivery, inclusive."""
        if self.issue_cycle is None or self.delivery_cycle is None:
            raise SimulationError("request timing incomplete")
        return self.delivery_cycle - self.issue_cycle + 1


def count_waits(arrival: Sequence[int], start: Sequence[int]) -> int:
    """How many requests started after they arrived: each queued behind
    a busy module."""
    return sum(map(ne, arrival, start))


def results_held(
    start: Sequence[int], delivery: Sequence[int], service_time: int
) -> bool:
    """Whether some result was delivered later than ``finish + 1``, the
    first cycle it was deliverable: held back by result-bus contention
    or ``q'`` back-pressure.  The one held-result rule: the kernel
    applies it to every stream it times."""
    return max(map(sub, delivery, start)) > service_time


class RequestRecords(Sequence):
    """One stream's finished requests, in issue order.

    Parameters
    ----------
    requests:
        The stream's ``(element_index, address)`` pairs.
    modules, arrival, start, delivery:
        Per request: target module, and the cycles it reached the
        module, entered service and was delivered.  Issue is always one
        cycle before arrival (the address bus delay) and service lasts
        exactly ``service_time`` cycles, so those are derived.
    wait_count:
        The number of requests that started after they arrived
        (:func:`count_waits`); the kernel's timing memo keeps it.
    result_held:
        Whether some result was held back (:func:`results_held`); the
        kernel's timing memo derives it once from the cycles and keeps
        it.
    stores:
        Stream positions that are store operations: a ``range`` or a
        frozenset.
    reduce:
        Address reduction applied to each record's ``address`` (the
        mapping's wrap into its address space); ``None`` keeps the
        address as given.

    Indexing or iterating builds the :class:`InFlightRequest` records
    once and caches them; :attr:`delivery_cycles`, :attr:`wait_count`
    and :attr:`result_held` never need them.
    """

    __slots__ = (
        "_requests",
        "_modules",
        "_arrival",
        "_start",
        "_delivery",
        "_service_time",
        "_stores",
        "_reduce",
        "_records",
        "_wait_count",
        "_result_held",
    )

    def __init__(
        self,
        requests: Sequence[tuple[int, int]],
        modules: Sequence[int],
        arrival: Sequence[int],
        start: Sequence[int],
        delivery: Sequence[int],
        service_time: int,
        wait_count: int,
        result_held: bool,
        stores: range | frozenset[int] = frozenset(),
        reduce: Callable[[int], int] | None = None,
    ):
        self._requests = requests
        self._modules = modules
        self._arrival = arrival
        self._start = start
        self._delivery = delivery
        self._service_time = service_time
        self._stores = stores
        self._reduce = reduce
        self._records: tuple[InFlightRequest, ...] | None = None
        self._wait_count = wait_count
        self._result_held = result_held

    def __len__(self) -> int:
        return len(self._arrival)

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestRecords):
            return NotImplemented
        return self._materialise() == other._materialise()

    __hash__ = None  # type: ignore[assignment]  # equal to mutable records

    def __repr__(self) -> str:
        return f"RequestRecords({len(self)} requests)"

    @property
    def delivery_cycles(self) -> Sequence[int]:
        """Each request's delivery cycle, in issue order: the sequence
        the kernel stored (a closed form's ``range``, a loop's tuple),
        not a copy."""
        return self._delivery

    @property
    def wait_count(self) -> int:
        """Requests that queued behind a busy module."""
        return self._wait_count

    @property
    def result_held(self) -> bool:
        """Some result was delivered later than ``finish + 1``, the first
        cycle it was deliverable — held back by result-bus contention or
        ``q'`` back-pressure (:func:`results_held`)."""
        return self._result_held

    def _materialise(self) -> tuple[InFlightRequest, ...]:
        records = self._records
        if records is None:
            last = self._service_time - 1
            reduce = self._reduce
            stores = self._stores
            records = tuple(
                InFlightRequest(
                    element,
                    address if reduce is None else reduce(address),
                    module,
                    position in stores,
                    arrived - 1,
                    arrived,
                    started,
                    started + last,
                    delivered,
                )
                for position, (
                    (element, address),
                    module,
                    arrived,
                    started,
                    delivered,
                ) in enumerate(
                    zip(
                        self._requests,
                        self._modules,
                        self._arrival,
                        self._start,
                        self._delivery,
                    )
                )
            )
            self._records = records
        return records
