"""The access planner: chooses and materialises a request order.

This is the library's central entry point.  Given a mapping, the memory's
service ratio ``T = 2**t`` and a :class:`~repro.core.vector.VectorAccess`,
the planner produces an :class:`AccessPlan` — the exact issue order of the
vector's elements together with its temporal distribution and a
conflict-freedom verdict.  The plan's request stream feeds both the
cycle-accurate simulator (:mod:`repro.memory`) and the register-level
hardware models (:mod:`repro.hardware`), which are tested to reproduce it
cycle for cycle.

Scheme selection (mode ``"auto"``) follows the paper:

* matched-style mappings (anything exposing the ``s`` exponent — Eq. (1),
  field interleaving, skewing): Lemma-2 subsequences aligned on the first
  subsequence's *module* order (Section 3.2);
* the section mapping of Eq. (2): low-window families use Lemma-2
  subsequences aligned on *supermodule* order, high-window families use
  Lemma-4 subsequences aligned on *section* order (Section 4.2);
* anything else (family outside the windows, length not a chunk multiple,
  mapping without structure): ordered access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Literal, TypeVar

from repro.core.distributions import (
    is_conflict_free,
    spatial_distribution,
    is_t_matched,
)
from repro.core.orderings import (
    RequestOrder,
    canonical_order,
    conflict_free_order,
    subsequence_order,
)
from repro.core.subsequences import build_subsequences
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, OrderingError
from repro.mappings.base import AddressMapping
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping

PlanMode = Literal["auto", "ordered", "subsequence", "conflict_free"]

Entry = TypeVar("Entry")

#: Entries the shared plan cache holds before evicting the least
#: recently used plan.
PLAN_CACHE_CAPACITY = 4096


class BoundedLRU:
    """A thread-safe map that keeps its ``capacity`` most recently used
    entries and counts lookup hits and misses (:meth:`stats` reports
    ``<name>_hits``, ``<name>_misses``, ``<name>_entries`` and
    ``<name>_capacity``)."""

    def __init__(self, capacity: int, name: str):
        if capacity < 1:
            raise ConfigurationError(
                f"{name} capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key):
        """The value under ``key``, now the most recently used, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def store(self, key, value):
        """Store ``value`` under ``key`` unless another thread stored one
        first, evicting the least recently used entry past
        ``capacity``; return the stored value."""
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                f"{self.name}_hits": self.hits,
                f"{self.name}_misses": self.misses,
                f"{self.name}_entries": len(self._entries),
                f"{self.name}_capacity": self.capacity,
            }


class PlanCache(BoundedLRU):
    """The LRU of finished issue orders, keyed on exactly what each
    order reads (see :func:`plan_cache_entry`): strided
    :class:`AccessPlan` objects, gather plans
    (:func:`~repro.core.gather.plan_indexed`) and the Figure 6 engine's
    runs (:func:`repro.scenarios.facade.figure6_run`).

    Grid points that share workload geometry across ``q``/ports/mode
    axes, and a strip that stores the vector it just loaded, re-plan
    identical accesses.  A program design point plans only when the
    scenario facade has not resolved its program already (a chaining
    baseline never plans).  Traced seed-1 perfbench passes read 504
    hits of 756 lookups on access-sweep (660 plan calls and 96 Figure 6
    drives a pass) and 63 of 230 on program-grid (230 plan calls a
    pass, its 24 gather and scatter index plans among them).  It is a
    class of its own so that wrapping :meth:`lookup` here (as
    perfbench's ``core.plan`` layer does) counts plan lookups only.
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        super().__init__(capacity, "plan_cache")


#: The process-wide cache every issue order shares.
_PLAN_CACHE = PlanCache(PLAN_CACHE_CAPACITY)


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the shared plan cache."""
    return _PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Empty the shared plan cache (tests, benchmarks)."""
    _PLAN_CACHE.clear()


def plan_cache_entry(
    mapping: AddressMapping,
    t: int,
    mode: str,
    access: object,
    build: Callable[[], Entry],
) -> Entry:
    """The issue order ``build()`` makes for ``access`` under ``mode`` on
    a memory with ``mapping`` and ``T = 2**t``, shared through the
    process-wide :class:`PlanCache`.

    The key is exactly what an order reads: the mapping's
    :meth:`~repro.mappings.base.AddressMapping.address_key`, ``t``, the
    mode and the access (a :class:`~repro.core.vector.VectorAccess` or
    an :class:`~repro.core.gather.IndexedAccess`, whose fields hold
    integers only, so equal keys mean equal inputs).  ``build`` must be
    a pure function of the key returning a frozen value, so an entry is
    bit-identical to a fresh build.  A build that raises stores
    nothing, and a mapping without an address key is never shared.
    """
    address = mapping.address_key()
    if address is None:
        return build()
    key = (address, t, mode, access)
    entry = _PLAN_CACHE.lookup(key)
    if entry is None:
        entry = _PLAN_CACHE.store(key, build())
    return entry


@dataclass(frozen=True)
class AccessPlan:
    """A fully materialised vector access.

    Attributes
    ----------
    vector:
        The access being planned.
    order:
        The issue order (a permutation of element indices).
    modules:
        Temporal distribution: module of each request in issue order.
    service_ratio:
        ``T = 2**t``.
    conflict_free:
        Verdict of the Section 2 definition on ``modules``.
    mapping:
        The mapping ``modules`` was computed under, so a memory can
        tell whether it may reuse them (not part of equality).
    """

    vector: VectorAccess
    order: RequestOrder
    modules: tuple[int, ...]
    service_ratio: int
    conflict_free: bool
    mapping: AddressMapping | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def scheme(self) -> str:
        """Name of the ordering used (``canonical`` / ``subsequence`` /
        ``conflict_free``)."""
        return self.order.name

    @property
    def minimum_latency(self) -> int:
        """The conflict-free latency ``T + L + 1`` (Section 2)."""
        return self.service_ratio + self.vector.length + 1

    def request_stream(self) -> list[tuple[int, int]]:
        """``(element_index, address)`` pairs in issue order.

        The element index travels with the request so the vector register
        file can be written in element order even though requests are
        issued out of order (Section 5-D: the register must be random
        access).
        """
        return [
            (index, self.vector.address_of(index)) for index in self.order.indices
        ]


class AccessPlanner:
    """Builds :class:`AccessPlan` objects for one memory configuration.

    Parameters
    ----------
    mapping:
        The module-number mapping of the memory.
    t:
        ``T = 2**t`` — the module service time in processor cycles.  For a
        matched memory ``t == mapping.module_bits``; an unmatched memory
        has more module bits than ``t``.
    """

    def __init__(self, mapping: AddressMapping, t: int):
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if mapping.module_bits < t:
            raise ConfigurationError(
                f"memory with {mapping.module_count} modules cannot hide a "
                f"service time of 2**{t} cycles (m={mapping.module_bits} < t={t})"
            )
        self.mapping = mapping
        self.t = t

    @property
    def service_ratio(self) -> int:
        """``T = 2**t``."""
        return 1 << self.t

    def plan(self, vector: VectorAccess, mode: PlanMode = "auto") -> AccessPlan:
        """Materialise an access plan for ``vector``.

        ``mode``:

        * ``"auto"`` — conflict-free reordering when the stride family and
          length allow it, otherwise ordered access (never raises for a
          valid vector);
        * ``"ordered"`` — canonical order;
        * ``"subsequence"`` — the Section 3.1 order (raises
          :class:`~repro.errors.OrderingError` outside its window);
        * ``"conflict_free"`` — the Section 3.2/4.2 order (same).

        Successful plans are memoized in the process-wide
        :class:`PlanCache` (:func:`plan_cache_entry`); the key is exact
        — the mapping's address key, ``t``, mode and the full vector —
        so a cached plan is bit-identical to a fresh one: plans are
        frozen and planning is a pure function of the key.  Forced
        modes that raise, and mappings without an address key, are
        never cached.
        """
        return plan_cache_entry(
            self.mapping,
            self.t,
            mode,
            vector,
            lambda: self._plan_uncached(vector, mode),
        )

    def _plan_uncached(
        self, vector: VectorAccess, mode: PlanMode
    ) -> AccessPlan:
        if mode == "ordered":
            return self._finish(vector, canonical_order(vector))
        if mode == "subsequence":
            w, _ = self._reorder_parameters(vector)
            plan = build_subsequences(vector, w, self.t)
            return self._finish(vector, subsequence_order(plan))
        if mode == "conflict_free":
            return self._conflict_free(vector)
        if mode == "auto":
            try:
                return self._conflict_free(vector)
            except OrderingError:
                return self._finish(vector, canonical_order(vector))
        raise ConfigurationError(f"unknown plan mode {mode!r}")

    def _conflict_free(self, vector: VectorAccess) -> AccessPlan:
        w, key_of = self._reorder_parameters(vector)
        plan = build_subsequences(vector, w, self.t)
        return self._finish(vector, conflict_free_order(plan, key_of))

    def _reorder_parameters(self, vector: VectorAccess):
        """Pick the decomposition exponent ``w`` and the alignment key.

        Returns ``(w, key_of)`` where ``key_of`` maps an element address
        to the value aligned across subsequences.
        """
        mapping = self.mapping
        x = vector.family
        if isinstance(mapping, SectionXorMapping):
            if x <= mapping.s:
                # Align on the within-section module field b[t-1..0]
                # (Section 4.2 stores exactly these bits).  Inside one
                # subsequence it equals the supermodule number XOR a
                # constant, but across subsequences with x < t the low
                # address bits change, and only the b-field alignment
                # keeps same-module requests exactly T slots apart.
                return mapping.s, mapping.module_within_section
            return mapping.y, mapping.section_of
        s = getattr(mapping, "s", None)
        if s is None:
            raise OrderingError(
                f"mapping {mapping.describe()} exposes no stride-window "
                "structure; only ordered access is available"
            )
        if x > s:
            raise OrderingError(
                f"stride family x={x} lies above the mapping exponent s={s}; "
                "the Lemma-2 decomposition does not apply"
            )
        return s, mapping.module_of

    def _finish(self, vector: VectorAccess, order: RequestOrder) -> AccessPlan:
        # Element i's module is entry i of the canonical sequence, which
        # a mapping with declared bits computes for one period and tiles.
        canonical = self.mapping.module_sequence(
            vector.base, vector.stride, vector.length
        )
        modules = tuple(map(canonical.__getitem__, order.indices))
        return AccessPlan(
            vector=vector,
            order=order,
            modules=modules,
            service_ratio=self.service_ratio,
            conflict_free=is_conflict_free(modules, self.service_ratio),
            mapping=self.mapping,
        )

    def vector_t_matched(self, vector: VectorAccess) -> bool:
        """Section 2: is the vector's spatial distribution T-matched?

        A necessary condition for any conflict-free temporal distribution
        (used by the theorem-verification tests)."""
        return is_t_matched(
            spatial_distribution(self.mapping, vector), self.service_ratio
        )


def cf_order_feasible(
    mapping: AddressMapping, t: int, access: VectorAccess
) -> bool | None:
    """Whether the Section 3.2/4.2 reordering exists for ``access``,
    decided without materialising it.

    Mirrors :meth:`AccessPlanner._reorder_parameters` plus Lemma 1's
    ``L = k * Px`` precondition: for the Eq. (1)/(2) XOR mappings the
    reordering succeeds exactly when the family lies at or below the
    decomposition exponent ``w`` and the length is a positive multiple
    of the chunk ``2**(w+t-x)``.  Within each subsequence the alignment
    key steps by the odd ``sigma`` through all ``2**t`` values, so
    same-module requests sit exactly ``T`` slots apart and a successful
    plan is always conflict-free.

    ``True``/``False`` match ``AccessPlanner._conflict_free`` (success
    vs :class:`~repro.errors.OrderingError`).  ``None`` means the
    geometry is outside the proven cases — a subclassed mapping, an
    unmatched Eq. (1) layout (``m != t``), a skew or field scheme below
    its exponent — and the caller must ask the planner.
    """
    if not isinstance(mapping, AddressMapping):
        return None
    x = access.family
    if type(mapping) is MatchedXorMapping:
        if x > mapping.s:
            return False
        if mapping.module_bits != t:
            return None
        w = mapping.s
    elif type(mapping) is SectionXorMapping:
        w = mapping.s if x <= mapping.s else mapping.y
        if x > w:
            return False
        if mapping.t != t:
            return None
    elif isinstance(mapping, SectionXorMapping):
        return None
    elif getattr(mapping, "s", None) is None:
        # _reorder_parameters refuses mappings without window structure.
        return False
    elif x > mapping.s:
        # The Lemma-2 decomposition is refused above the exponent for
        # every matched-style mapping, structured or not.
        return False
    else:
        return None
    chunk = 1 << (w + t - x)
    return access.length % chunk == 0
