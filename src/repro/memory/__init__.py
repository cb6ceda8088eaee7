"""Cycle-accurate multi-module memory subsystem (the Figure 2 machine).

Module map
----------

* :mod:`repro.memory.kernel` — **the one memory kernel**:
  :class:`MemoryKernel` simulates M modules × ``k = config.ports``
  address/result ports × ``n`` named request streams in a single flat,
  event-skipping cycle loop, returning a :class:`KernelRun` with one
  :class:`AccessResult` per stream: its cycles, records, busy cycles
  and the one conflict-freedom rule (no wait, no issue stall, no held
  result).  ``MemoryKernel(config).run(streams)`` is the way to run
  several streams.  Its timing memo
  (:func:`~repro.memory.kernel.kernel_timing`) keeps each stream's
  finished timing, whose busy cycles it derives once from the module
  sequence and whose held-result flag and first and last cycles from
  the request cycles, so a repeated run costs its streams.
* :mod:`repro.memory.system` — :class:`MemorySystem`, the single-stream
  view (``n = 1``) returning its one stream's :class:`AccessResult`.
* :mod:`repro.memory.config` — :class:`MemoryConfig`: mapping, ``T``,
  buffer depths ``q``/``q'`` and the port count.
* :mod:`repro.memory.module` — the :class:`InFlightRequest` timing
  record and :class:`RequestRecords`, the lazily built sequence of them
  every run returns (its wait count and held-result flag come from the
  kernel's memo; :func:`~repro.memory.module.results_held` is the one
  held-result rule).
* :mod:`repro.memory.storage` — the word-addressable backing store.
* :mod:`repro.memory.trace` — result summaries and Gantt rendering.

Derived metrics (efficiency, excess latency...) are properties of
:class:`repro.scenarios.ScenarioResult`.
"""

from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    AccessResult,
    KernelRun,
    KernelStream,
    MemoryKernel,
)
from repro.memory.module import InFlightRequest, RequestRecords
from repro.memory.storage import MemoryStore
from repro.memory.system import MemorySystem
from repro.memory.trace import describe_result, render_timeline

__all__ = [
    "AccessResult",
    "InFlightRequest",
    "KernelRun",
    "KernelStream",
    "MemoryConfig",
    "MemoryKernel",
    "MemoryStore",
    "MemorySystem",
    "RequestRecords",
    "describe_result",
    "render_timeline",
]
