"""Per-layer timing of the program, taken from outside it.

:class:`LayerTrace` wraps public functions of ``repro.*`` modules *by
name* — ``"repro.memory.kernel:MemoryKernel.run"`` — records one span
per call (layer, thread, start, end) and counts what each call did
(kernel runs, simulated cycles, cache hits...).  Nothing under ``src/``
is edited: the wrapper replaces the attribute on its module or class
and on every already-imported ``repro`` module that bound the same
object with ``from ... import``.

A target that no longer exists (a module or function deleted by a later
change) is reported as *absent*; its layer then reads 0 and the run
goes on.  Span self times (a span's duration minus its children's, with
time that several threads spend in spans at once split evenly between
them) plus ``other`` — traced wall time no span covers — add up to the
traced wall time exactly.

Never used for end-to-end numbers: a benchmark run with ``--trace 1``
reports only these per-layer figures, and ``overhead_s`` estimates what
the wrappers themselves cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


def _lint_counts(args, kwargs, result):
    specs = args[0] if args else kwargs.get("specs", ())
    return {"specs_linted": len(specs)}


def _kernel_counts(args, kwargs, result):
    return {"kernel_runs": 1, "sim_cycles": result.total_cycles}


def _program_counts(args, kwargs, result):
    return {"programs": 1, "sim_cycles": result.total_cycles}


def _batch_counts(args, kwargs, result):
    return {
        "analytic_points": result.analytic_count,
        "soa_points": result.soa_count,
        "fallback_points": result.fallback_count,
    }


def _plan_counts(args, kwargs, result):
    return {"plan_calls": 1}


def _plan_cache_counts(args, kwargs, result):
    return {"plan_cache_lookups": 1, "plan_cache_hits": int(result is not None)}


def _store_lookup_counts(args, kwargs, result):
    return {"lookups": 1, "hits": int(result is not None)}


#: layer -> [(target, counter)].  ``counter(args, kwargs, result)``
#: returns counts to add to the layer (``None``: count nothing).
#: ``COUNT_ONLY`` targets record no span, so their time stays with their
#: caller.
TARGETS: dict[str, list[tuple[str, object]]] = {
    "cli.command": [("repro.cli:main", None)],
    "scenarios.load": [
        ("repro.scenarios.grid:load_grid", None),
        ("repro.scenarios.grid:load_scenarios", None),
        ("repro.scenarios.spec:ScenarioSpec.from_dict", None),
    ],
    "scenarios.simulate": [("repro.scenarios.facade:simulate", None)],
    "check.lint": [("repro.check.runner:require_submittable", _lint_counts)],
    "core.plan": [
        ("repro.core.planner:AccessPlanner.plan", _plan_counts),
        ("repro.core.gather:plan_indexed", _plan_counts),
    ],
    "memory.kernel": [("repro.memory.kernel:MemoryKernel.run", _kernel_counts)],
    "hardware.figure6": [
        ("repro.hardware.oos_engine:Figure6Engine.__init__", None),
        ("repro.hardware.oos_engine:Figure6Engine.run", None),
    ],
    "batch.evaluate": [("repro.batch.engine:evaluate_batch", _batch_counts)],
    "processor.program": [
        ("repro.processor.engine:ProgramEngine.run", _program_counts)
    ],
    "lab.run": [("repro.lab.executor:run_jobs", None)],
    "lab.hash": [("repro.lab.jobs:JobSpec.config_hash", None)],
    "lab.lookup": [("repro.lab.store:ArtifactStore.load", _store_lookup_counts)],
    "lab.save": [("repro.lab.store:ArtifactStore.save", None)],
    "lab.manifest": [("repro.lab.manifest:write_run_artifacts", None)],
    "obs.ingest": [("repro.obs.history:HistoryDB.ingest_manifest", None)],
    "serve.request": [
        ("repro.serve.routes:RequestHandler.do_GET", None),
        ("repro.serve.routes:RequestHandler.do_POST", None),
    ],
}
COUNT_ONLY: dict[str, list[tuple[str, object]]] = {
    "core.plan": [("repro.core.planner:PlanCache.lookup", _plan_cache_counts)],
}


class LayerTrace:
    """Spans and counts of wrapped layer functions, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, str]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls = 0
        self.absent: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> "LayerTrace":
        """Wrap every target; missing ones are recorded as absent."""
        for table, spanned in ((TARGETS, True), (COUNT_ONLY, False)):
            for layer, targets in table.items():
                for target, counter in targets:
                    try:
                        self._wrap(target, layer, counter, spanned)
                    except (ImportError, AttributeError) as error:
                        self.absent[target] = f"{type(error).__name__}: {error}"
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, target: str, layer: str, counter, spanned: bool) -> None:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        # A class's own ``__dict__`` entry keeps classmethod/staticmethod
        # wrappers visible; inherited methods are wrapped on the subclass.
        raw = vars(owner).get(name) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrapper(raw.__func__, layer, counter, spanned))
        elif callable(raw):
            wrapper = self._wrapper(raw, layer, counter, spanned)
        else:
            raise AttributeError(f"{target} is not a function")
        self._rebind(owner, name, raw, wrapper)
        if not isinstance(owner, type):
            # Rebind ``from module import name`` copies in other modules.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, attr, raw, wrapper)

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrapper(self, function, layer: str, counter, spanned: bool):
        spans = self.spans
        counts = self.counts[layer]
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                if spanned:
                    spans.append((ident(), start, clock(), layer))
            # Unlocked, so approximate under threads; feeds only the
            # overhead estimate.
            self.calls += 1
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        counts[key] += value
                except (AttributeError, TypeError, IndexError, KeyError):
                    counts["uncounted_calls"] += 1
            return result

        return traced

    def span(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by the caller (imports, client work)."""
        self.spans.append((threading.get_ident(), start, end, layer))

    # -- reporting -------------------------------------------------------

    def inclusive_times(self) -> dict[str, float]:
        """Per-layer summed span durations, children included."""
        totals: dict[str, float] = defaultdict(float)
        for _thread, start, end, layer in self.spans:
            totals[layer] += end - start
        return dict(totals)

    def record(self, wall_start: float, wall_end: float) -> dict:
        """The JSON-safe summary a traced process hands back."""
        self_times, other = self.self_times(wall_start, wall_end)
        return {
            "wall_s": wall_end - wall_start,
            "self_s": self_times,
            "inclusive_s": self.inclusive_times(),
            "other_s": other,
            "counts": {layer: dict(counts) for layer, counts in self.counts.items()},
            "calls": self.calls,
            "absent": self.absent,
        }

    def self_times(self, wall_start: float, wall_end: float) -> tuple[dict[str, float], float]:
        """Per-layer self seconds inside the window, plus uncovered time.

        The values sum to ``wall_end - wall_start``.
        """
        segments: list[tuple[float, float, str]] = []
        by_thread: dict[int, list] = defaultdict(list)
        for thread, start, end, layer in self.spans:
            start, end = max(start, wall_start), min(end, wall_end)
            if end > start:
                by_thread[thread].append((start, end, layer))
        for spans in by_thread.values():
            segments.extend(_innermost_segments(spans))
        events = []
        for start, end, layer in segments:
            events.append((start, 1, layer))
            events.append((end, -1, layer))
        events.sort(key=lambda event: (event[0], event[1]))
        totals: dict[str, float] = defaultdict(float)
        active: dict[str, int] = defaultdict(int)
        depth = 0
        covered = 0.0
        previous = wall_start
        for moment, step, layer in events:
            if depth and moment > previous:
                share = (moment - previous) / depth
                for name, count in active.items():
                    if count:
                        totals[name] += share * count
                covered += moment - previous
            previous = moment
            active[layer] += step
            depth += step
        return dict(totals), (wall_end - wall_start) - covered


def _innermost_segments(spans: list[tuple[float, float, str]]):
    """One thread's properly nested spans as disjoint innermost pieces."""
    spans.sort(key=lambda span: (span[0], -span[1]))
    stack: list[list] = []  # [end, layer, resume]
    for start, end, layer in spans:
        while stack and stack[-1][0] <= start:
            top_end, top_layer, resume = stack.pop()
            if top_end > resume:
                yield (resume, top_end, top_layer)
            if stack:
                stack[-1][2] = top_end
        if stack and start > stack[-1][2]:
            yield (stack[-1][2], start, stack[-1][1])
        stack.append([end, layer, start])
    while stack:
        top_end, top_layer, resume = stack.pop()
        if top_end > resume:
            yield (resume, top_end, top_layer)
        if stack:
            stack[-1][2] = top_end


def wrapper_overhead(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain one (median of 5)."""

    def plain(value):
        return value

    trace = LayerTrace()
    wrapped = trace._wrapper(plain, "calibration", None, True)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for index in range(calls):
            plain(index)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(calls):
            wrapped(index)
        samples.append((time.perf_counter() - start - bare) / calls)
        trace.spans.clear()
    samples.sort()
    return max(0.0, samples[2])
