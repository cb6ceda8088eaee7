"""repro.obs — observability: cycle-level tracing and cross-run history.

The simulators answer "how many cycles"; this package answers "what
happened during them" and "how does that compare with every run before".

* :mod:`repro.obs.tracer` — a zero-cost-when-disabled event API.  Hot
  loops accept an optional :class:`Tracer`; when none is supplied the
  :data:`NULL_TRACER` singleton short-circuits every call, so the
  instrumented code paths cost nothing in the common case.  Collected
  events export as Chrome/Perfetto ``trace_event`` JSON
  (``repro scenario run --trace out.json``) for timeline viewers.
* :mod:`repro.obs.history` — cross-run metric points read afresh from a
  lab root's run manifests, stored results and ingested ``BENCH_*.json``
  files, powering ``repro lab history`` trends and regression flagging.
  Its names load on first use.
* :mod:`repro.obs.commit` — :func:`current_git_commit`, the commit each
  run manifest records.
* :func:`cache_stats` — one snapshot of the process-wide memoization
  counters (the plan cache, the program memo and the kernel's timing
  memo).
"""

from repro import _lazy_exports
from repro.obs.commit import current_git_commit
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_events,
    resolve_tracer,
    to_chrome_trace,
    write_chrome_trace,
)

_EXPORTS = dict.fromkeys(
    (
        "BenchFileError",
        "History",
        "ingest_bench",
        "metric_direction",
        "read_history",
    ),
    "repro.obs.history",
)

__all__ = [
    "BenchFileError",
    "History",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "cache_stats",
    "chrome_trace_events",
    "current_git_commit",
    "ingest_bench",
    "metric_direction",
    "read_history",
    "resolve_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)


def cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for every process-wide memoization cache:
    the planner's plan cache (``plan_cache_*``), the scenario facade's
    program memo (``program_memo_*``) and the memory kernel's timing
    memo (``kernel_timing_*``), each as hits, misses, entries and
    capacity.  Imported lazily, so that importing the tracer does not
    pull in the simulator.
    """
    from repro.core.planner import plan_cache_stats
    from repro.memory.kernel import kernel_timing
    from repro.scenarios.facade import program_memo_stats

    kernel = kernel_timing.cache_info()
    return {
        **plan_cache_stats(),
        **program_memo_stats(),
        "kernel_timing_hits": kernel.hits,
        "kernel_timing_misses": kernel.misses,
        "kernel_timing_entries": kernel.currsize,
        "kernel_timing_capacity": kernel.maxsize,
    }
