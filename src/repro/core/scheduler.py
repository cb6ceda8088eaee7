"""Oracle conflict-free scheduling for arbitrary T-matched vectors.

The paper's reordering is deliberately structured so the Figure 5/6
hardware can generate it with two adders and a handful of latches.  This
module answers the natural ablation question: *how much coverage does
that structure give up?*  It implements an idealised scheduler with no
hardware constraints: given the module number of every element, greedily
build an issue order in which requests to the same module are at least
``T`` slots apart.

The scheduling problem is the classic "task scheduler with cooldown".
With module multiset counts ``c_1 >= c_2 >= ...`` over ``L`` elements, a
zero-idle schedule exists iff

    ``(c_1 - 1) * T + k <= L``

where ``k`` is the number of modules attaining ``c_1`` — a refinement of
the paper's necessary T-matched condition ``c_1 <= L / T``.  The greedy
*most-remaining-first with cooldown* rule achieves the bound, so for any
T-matched vector (any length, any mapping — not just the window's chunk
multiples) the oracle finds a conflict-free order.

The ablation bench compares the oracle against the paper's ordering:
inside the window they agree on latency exactly; the oracle additionally
covers awkward lengths — at the price of needing the whole module
sequence up front, which is precisely what 1992 hardware could not do.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Sequence

from repro.core.distributions import is_conflict_free
from repro.core.orderings import RequestOrder
from repro.core.planner import AccessPlan, AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError


def schedule_with_cooldown(
    modules: Sequence[int], cooldown: int, best_effort: bool = False
) -> list[int] | None:
    """Order positions so equal values are at least ``cooldown`` apart.

    Parameters
    ----------
    modules:
        ``modules[i]`` is the module of element ``i``.
    cooldown:
        The service ratio ``T``: two requests to one module must be at
        least ``T`` issue slots apart.
    best_effort:
        When no module is eligible (all pending modules still cooling
        down) the strict mode returns ``None``; best-effort mode instead
        issues the module that releases soonest — accepting that one
        conflict — and continues.  The result is then a permutation that
        *minimises clustering* rather than a proof of conflict-freedom.

    Returns
    -------
    A permutation of ``range(len(modules))``, or ``None`` in strict mode
    when no zero-idle schedule exists.  The greedy rule is *most
    remaining elements first*, excluding modules still in cooldown; ties
    break on module number for determinism.
    """
    if cooldown < 1:
        raise OrderingError(f"cooldown must be >= 1, got {cooldown}")
    positions: dict[int, list[int]] = {}
    for position, module in enumerate(modules):
        positions.setdefault(module, []).append(position)

    # Max-heap of (-remaining, module).
    heap: list[tuple[int, int]] = [
        (-len(queue), module) for module, queue in positions.items()
    ]
    heapq.heapify(heap)
    # Modules cooling down, as a heap of (release_slot, remaining, module).
    cooling: list[tuple[int, int, int]] = []
    order: list[int] = []
    taken: dict[int, int] = {module: 0 for module in positions}

    for slot in range(len(modules)):
        while cooling and cooling[0][0] <= slot:
            _release, remaining, module = heapq.heappop(cooling)
            heapq.heappush(heap, (-remaining, module))
        if heap:
            negative_remaining, module = heapq.heappop(heap)
            remaining = -negative_remaining - 1
        elif best_effort:
            # Concede one conflict: take the soonest-releasing module.
            _release, pending, module = heapq.heappop(cooling)
            remaining = pending - 1
        else:
            return None  # every pending module is cooling down: idle slot
        order.append(positions[module][taken[module]])
        taken[module] += 1
        if remaining > 0:
            heapq.heappush(cooling, (slot + cooldown, remaining, module))
    return order


def feasible_with_cooldown(modules: Sequence[int], cooldown: int) -> bool:
    """Closed-form feasibility test for a zero-idle schedule.

    ``(c_max - 1) * cooldown + k <= L`` with ``k`` = number of modules
    whose count equals ``c_max``.  Verified against the greedy scheduler
    in the tests.
    """
    if not modules:
        return True
    counts = Counter(modules)
    c_max = max(counts.values())
    k = sum(1 for count in counts.values() if count == c_max)
    return (c_max - 1) * cooldown + k <= len(modules)


class OraclePlanner:
    """An idealised planner: conflict-free whenever mathematically possible.

    Wraps an :class:`~repro.core.planner.AccessPlanner`'s mapping and
    service ratio but replaces the structured Section 3/4 orderings with
    the greedy cooldown schedule.  Used by the ablation benches as the
    upper bound on what any reordering could achieve.
    """

    def __init__(self, planner: AccessPlanner):
        self.mapping = planner.mapping
        self.t = planner.t
        self.service_ratio = planner.service_ratio

    def plan(self, vector: VectorAccess) -> AccessPlan:
        """Greedy conflict-free plan; falls back to canonical order when
        no zero-idle schedule exists (non-T-matched vectors)."""
        modules = [
            self.mapping.module_of(self.mapping.reduce(address))
            for address in vector.addresses()
        ]
        schedule = schedule_with_cooldown(modules, self.service_ratio)
        if schedule is None:
            indices = tuple(range(vector.length))
            name = "canonical"
        else:
            indices = tuple(schedule)
            name = "oracle"
        order = RequestOrder(name, indices, vector)
        ordered_modules = tuple(modules[index] for index in indices)
        return AccessPlan(
            vector=vector,
            order=order,
            modules=ordered_modules,
            service_ratio=self.service_ratio,
            conflict_free=is_conflict_free(
                ordered_modules, self.service_ratio
            ),
            mapping=self.mapping,
        )
