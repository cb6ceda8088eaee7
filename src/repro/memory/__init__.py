"""Cycle-accurate multi-module memory subsystem (the Figure 2 machine).

Module map
----------

* :mod:`repro.memory.kernel` — **the one memory kernel**:
  :class:`MemoryKernel` simulates M modules × ``k = config.ports``
  address/result ports × ``n`` named request streams in a single flat,
  event-skipping cycle loop, returning a :class:`KernelRun` with one
  :class:`StreamRun` per stream.  ``MemoryKernel(config).run(streams)``
  is the way to run several streams.
* :mod:`repro.memory.system` — :class:`MemorySystem`, the single-stream
  view (``n = 1``) returning :class:`AccessResult`.
* :mod:`repro.memory.config` — :class:`MemoryConfig`: mapping, ``T``,
  buffer depths ``q``/``q'`` and the port count.
* :mod:`repro.memory.module` — the :class:`InFlightRequest` timing
  record and :class:`RequestRecords`, the lazily built sequence of them
  every run returns.
* :mod:`repro.memory.storage` — the word-addressable backing store.
* :mod:`repro.memory.trace` — result summaries and Gantt rendering.

Derived metrics (efficiency, excess latency...) are properties of
:class:`repro.scenarios.ScenarioResult`.
"""

from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    KernelRun,
    KernelStream,
    MemoryKernel,
    StreamRun,
)
from repro.memory.module import InFlightRequest, RequestRecords
from repro.memory.storage import MemoryStore
from repro.memory.system import AccessResult, MemorySystem
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
    "StreamRun",
    "RequestRecords",
    "describe_result",
    "render_timeline",
]
