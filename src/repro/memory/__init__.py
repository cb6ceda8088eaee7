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
* :mod:`repro.memory.metrics`, :mod:`repro.memory.trace` — derived
  metrics and Gantt rendering.
"""

from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    KernelRun,
    KernelStream,
    MemoryKernel,
    StreamRun,
)
from repro.memory.metrics import (
    PopulationSummary,
    access_efficiency,
    cycles_per_element,
    module_load_balance,
    streaming_efficiency,
    summarise_population,
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
    "PopulationSummary",
    "RequestRecords",
    "access_efficiency",
    "cycles_per_element",
    "describe_result",
    "module_load_balance",
    "render_timeline",
    "streaming_efficiency",
    "summarise_population",
]
