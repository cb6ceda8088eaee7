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
from typing import Literal

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

#: Entries the shared plan cache holds before evicting the least
#: recently used plan.
PLAN_CACHE_CAPACITY = 4096


class PlanCache:
    """A thread-safe LRU of finished :class:`AccessPlan` objects.

    Keyed on the exact plan inputs — ``(type(mapping),
    mapping.cache_token(), t, mode, vector)`` — so a hit is
    bit-identical to recomputation by construction: plans are frozen,
    planning is a pure function of the key, and mappings without a
    declared :meth:`~repro.mappings.base.AddressMapping.cache_token`
    are never cached.  The win comes from repetition the per-point
    paths cannot see: a strip that stores the vector it just loaded, a
    chained program re-run on the non-chaining machine, and grid
    points that share workload geometry across ``q``/ports/streams
    axes all re-plan identical vectors.
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY):
        if capacity < 1:
            raise ConfigurationError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._plans: OrderedDict[tuple, AccessPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> "AccessPlan | None":
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, key: tuple, plan: "AccessPlan") -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "plan_cache_hits": self.hits,
                "plan_cache_misses": self.misses,
                "plan_cache_entries": len(self._plans),
                "plan_cache_capacity": self.capacity,
            }


#: The process-wide cache every :class:`AccessPlanner` shares.
_PLAN_CACHE = PlanCache(PLAN_CACHE_CAPACITY)


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the shared plan cache."""
    return _PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Empty the shared plan cache (tests, benchmarks)."""
    _PLAN_CACHE.clear()


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
        :class:`PlanCache`; the key is exact — mapping identity, ``t``,
        mode and the full vector — so a cached plan is
        indistinguishable from a fresh one.  Forced modes that raise
        are never cached.
        """
        key = self._plan_cache_key(vector, mode)
        if key is not None:
            cached = _PLAN_CACHE.lookup(key)
            if cached is not None:
                return cached
        plan = self._plan_uncached(vector, mode)
        if key is not None:
            _PLAN_CACHE.store(key, plan)
        return plan

    def _plan_cache_key(
        self, vector: VectorAccess, mode: PlanMode
    ) -> tuple | None:
        token = self.mapping.cache_token()
        if token is None:
            return None
        return (type(self.mapping), token, self.t, mode, vector)

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
