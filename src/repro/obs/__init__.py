"""repro.obs — observability: cycle-level tracing and cross-run history.

The simulators answer "how many cycles"; this package answers "what
happened during them" and "how does that compare with every run before".

* :mod:`repro.obs.tracer` — a zero-cost-when-disabled event API.  Hot
  loops accept an optional :class:`Tracer`; when none is supplied the
  :data:`NULL_TRACER` singleton short-circuits every call, so the
  instrumented code paths cost nothing in the common case.  Collected
  events export as Chrome/Perfetto ``trace_event`` JSON
  (``repro scenario run --trace out.json``) for timeline viewers.
* :mod:`repro.obs.history` — a SQLite index of run manifests and
  ``BENCH_*.json`` artifacts (``runs`` / ``metrics`` tables keyed by
  config hash + source fingerprint), powering ``repro lab history``
  trends and regression flagging.
* :func:`cache_stats` — one snapshot of the process-wide memoization
  counters (the planner's plan cache).
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_events,
    resolve_tracer,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.history import HistoryDB, current_git_commit

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "HistoryDB",
    "cache_stats",
    "chrome_trace_events",
    "current_git_commit",
    "resolve_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
]


def cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for every process-wide memoization cache.

    Today that is the planner's plan cache.  Imported lazily, so that
    importing the tracer does not pull in the planner.
    """
    from repro.core.planner import plan_cache_stats

    return plan_cache_stats()
