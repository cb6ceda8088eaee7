"""Indexed (gather/scatter) accesses and their best-effort scheduling.

The paper's introduction contrasts constant-stride vectors with "more
unstructured patterns", which conventional interleaving serves poorly
and for which the Section 3 reordering does not apply (there is no
sigma*2^x structure to exploit).  This module extends the library to
that case:

* :class:`IndexedAccess` — a gather/scatter: ``address[i] = base +
  indices[i]`` (arbitrary index vector, duplicates allowed);
* :func:`plan_indexed` — an issue order for the gather.  Mode
  ``"ordered"`` issues in element order; mode ``"scheduled"`` applies
  the greedy cooldown scheduler of :mod:`repro.core.scheduler`, which is
  conflict-free whenever the gather's module multiset admits any
  conflict-free order at all.  The schedule reads only the gather's
  module sequence and ``T``, so plans are shared through the
  process-wide plan cache as strided plans are
  (:func:`~repro.core.planner.plan_cache_entry`): design points that
  differ only in ``q``, ``q'`` or the port count plan a gather once.

Out-of-order gather needs exactly the hardware the paper already pays
for (random-access vector registers, element indices travelling with
requests), so the scheduled mode is a natural extension of the paper's
design — the ablation bench A6 quantifies the win on random and on
power-of-two-clustered index sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

from repro.core.distributions import is_conflict_free
from repro.core.planner import plan_cache_entry
from repro.core.scheduler import schedule_with_cooldown
from repro.core.vector import check_integer
from repro.errors import VectorSpecError
from repro.mappings.base import AddressMapping

IndexedMode = Literal["ordered", "scheduled"]


@dataclass(frozen=True)
class IndexedAccess:
    """A gather/scatter access: element ``i`` touches ``base + indices[i]``.

    Duplicate indices are allowed (a gather may read one address twice);
    they cap the achievable throughput exactly like a clustered stride.
    The base and every index must be integers (``bool`` is refused), as
    a :class:`~repro.core.vector.VectorAccess`'s fields must.
    """

    base: int
    indices: tuple[int, ...]

    def __init__(self, base: int, indices: Sequence[int]):
        indices = tuple(indices)
        if not indices:
            raise VectorSpecError("an indexed access needs at least one index")
        check_integer("base", base)
        if set(map(type, indices)) != {int}:
            for position, index in enumerate(indices):
                check_integer(f"indices[{position}]", index)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "indices", indices)

    @property
    def length(self) -> int:
        return len(self.indices)

    def address_of(self, element: int) -> int:
        if not 0 <= element < self.length:
            raise VectorSpecError(
                f"element {element} out of range for gather of length "
                f"{self.length}"
            )
        return self.base + self.indices[element]

    def addresses(self) -> list[int]:
        return [self.base + index for index in self.indices]


@dataclass(frozen=True)
class IndexedPlan:
    """A materialised gather/scatter issue order.

    ``mapping`` is the mapping ``modules`` was computed under (not part
    of equality), as on :class:`~repro.core.planner.AccessPlan`.
    """

    access: IndexedAccess
    order: tuple[int, ...]
    modules: tuple[int, ...]
    service_ratio: int
    conflict_free: bool
    scheme: str
    mapping: AddressMapping | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def minimum_latency(self) -> int:
        return self.service_ratio + self.access.length + 1

    def request_stream(self) -> list[tuple[int, int]]:
        """``(element_index, address)`` pairs in issue order."""
        return [
            (element, self.access.address_of(element))
            for element in self.order
        ]


def plan_indexed(
    mapping: AddressMapping,
    t: int,
    access: IndexedAccess,
    mode: IndexedMode = "scheduled",
) -> IndexedPlan:
    """Build an issue order for a gather/scatter.

    ``"scheduled"`` runs the greedy cooldown scheduler on the gather's
    module sequence and falls back to element order when no zero-idle
    schedule exists (the multiset is not T-matched); ``"ordered"``
    always issues in element order.  The plan is the plan cache's entry
    for the mapping's address key, ``t``, ``mode`` and ``access``; an
    unknown mode raises and stores nothing.
    """
    return plan_cache_entry(
        mapping, t, mode, access, lambda: _plan(mapping, t, access, mode)
    )


def _plan(
    mapping: AddressMapping, t: int, access: IndexedAccess, mode: str
) -> IndexedPlan:
    service_ratio = 1 << t
    modules = mapping.modules_of(access.addresses())
    if mode == "ordered":
        order = tuple(range(access.length))
        scheme = "canonical"
    elif mode == "scheduled":
        # Best-effort: even when no zero-idle schedule exists (the module
        # multiset is not T-matched), spreading clustered requests still
        # cuts queueing; the conflict_free field reports the truth.
        schedule = schedule_with_cooldown(
            modules, service_ratio, best_effort=True
        )
        assert schedule is not None  # best-effort always returns an order
        order = tuple(schedule)
        scheme = "scheduled"
    else:
        raise VectorSpecError(f"unknown indexed plan mode {mode!r}")
    ordered_modules = tuple(modules[element] for element in order)
    return IndexedPlan(
        access=access,
        order=order,
        modules=ordered_modules,
        service_ratio=service_ratio,
        conflict_free=is_conflict_free(ordered_modules, service_ratio),
        scheme=scheme,
        mapping=mapping,
    )
