"""Zero-cost-when-disabled cycle-level event tracing.

The simulators are cycle-accurate but, until now, only their *totals*
escaped: a :class:`~repro.memory.kernel.KernelRun` says how many cycles
the run took, not which module was busy when.  This module defines the
event vocabulary the kernel, the decoupled machine and the program
engine speak, and the export path into Chrome/Perfetto ``trace_event``
JSON so any run can be opened in a timeline viewer.

Design constraints, in order of importance:

1. **Disabled tracing must cost nothing.**  Every instrumented call
   site is guarded by ``tracer.enabled`` (a plain class attribute, no
   property) or holds the :data:`NULL_TRACER` singleton whose methods
   are empty.  The kernel goes further: it derives its events *after*
   the hot cycle loop from the per-request timing records, so the loop
   itself is byte-identical with tracing on or off.
2. **Cycles are the clock.**  Events carry simulated cycle numbers,
   never wall time.  The Chrome exporter maps one cycle to one
   microsecond (``ts``/``dur`` are microseconds in the trace_event
   spec), which renders nicely in Perfetto at any zoom.
3. **Tracks are strings.**  A track is ``"group/name"`` —
   ``"memory/module 3"``, ``"ports/port 0"``, ``"streams/a"``,
   ``"machine/memory"`` — and the exporter turns groups into trace
   processes and names into threads, so related lanes nest in the
   viewer without the emitters coordinating pids.

Three event kinds cover everything the simulators want to say:

* ``span`` — an activity with a start and end cycle (a request
  occupying a module, an instruction occupying a unit);
* ``instant`` — a point event (an address issued on a port, a result
  delivered);
* ``counter`` — a sampled value (requests in flight).

Offsets: composite simulations (a program whose memory batches each run
the kernel from relative cycle 1) shift sub-tracers with
:meth:`Tracer.shifted` instead of rebasing every call site.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "chrome_trace_events",
    "resolve_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: Event-tuple layout: ``(kind, track, name, start, end, args)``.
KIND_SPAN = "span"
KIND_INSTANT = "instant"
KIND_COUNTER = "counter"


class NullTracer:
    """The do-nothing tracer: every emit is a no-op, ``enabled`` is False.

    Instrumented code holds one of these (via :func:`resolve_tracer`)
    instead of branching on ``None`` everywhere; hot paths that want to
    skip even the call overhead check ``tracer.enabled`` once.
    """

    __slots__ = ()

    enabled = False

    def span(self, track, name, begin, end, **args) -> None:
        pass

    def instant(self, track, name, at, **args) -> None:
        pass

    def counter(self, track, name, at, value) -> None:
        pass

    def shifted(self, offset: int) -> "NullTracer":
        return self


#: Shared do-nothing instance; identity-comparable (`tracer is NULL_TRACER`).
NULL_TRACER = NullTracer()


def resolve_tracer(tracer) -> "Tracer | NullTracer":
    """``None`` -> the null tracer; anything else passes through."""
    return NULL_TRACER if tracer is None else tracer


class Tracer:
    """Collects cycle-stamped events as plain tuples.

    Events accumulate in :attr:`events` as
    ``(kind, track, name, start_cycle, end_cycle, args)`` tuples —
    cheap to append, trivial to assert on in tests, and converted to
    Chrome ``trace_event`` dicts only at export time.
    """

    __slots__ = ("events",)

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def span(
        self, track: str, name: str, begin: int, end: int, **args
    ) -> None:
        """An activity occupying ``track`` from cycle ``begin`` through
        ``end`` inclusive (closed interval).  The positional names are
        deliberately terse so emitters can pass domain kwargs like
        ``start_cycle`` through ``args`` without collisions."""
        self.events.append((KIND_SPAN, track, name, begin, end, args))

    def instant(self, track: str, name: str, at: int, **args) -> None:
        """A point event at cycle ``at`` on ``track``."""
        self.events.append((KIND_INSTANT, track, name, at, at, args))

    def counter(self, track: str, name: str, at: int, value) -> None:
        """A sampled counter value at cycle ``at``."""
        self.events.append(
            (KIND_COUNTER, track, name, at, at, {name: value})
        )

    def shifted(self, offset: int) -> "Tracer | _ShiftedTracer":
        """A view of this tracer with ``offset`` added to every cycle.

        Sub-simulations that count from their own cycle 1 (each kernel
        invocation inside a program run) emit through a shifted view so
        their events land at absolute program cycles.
        """
        if offset == 0:
            return self
        return _ShiftedTracer(self, offset)

    # -- inspection helpers (tests and exporters) ----------------------

    def spans(self, track_prefix: str = "") -> list[tuple]:
        """All span events, optionally filtered by track prefix."""
        return [
            event
            for event in self.events
            if event[0] == KIND_SPAN and event[1].startswith(track_prefix)
        ]

    def instants(self, track_prefix: str = "") -> list[tuple]:
        """All instant events, optionally filtered by track prefix."""
        return [
            event
            for event in self.events
            if event[0] == KIND_INSTANT and event[1].startswith(track_prefix)
        ]


class _ShiftedTracer:
    """Proxy adding a constant cycle offset to every emitted event."""

    __slots__ = ("_base", "_offset")

    enabled = True

    def __init__(self, base, offset: int) -> None:
        self._base = base
        self._offset = offset

    def span(self, track, name, begin, end, **args) -> None:
        self._base.span(
            track, name, begin + self._offset, end + self._offset, **args
        )

    def instant(self, track, name, at, **args) -> None:
        self._base.instant(track, name, at + self._offset, **args)

    def counter(self, track, name, at, value) -> None:
        self._base.counter(track, name, at + self._offset, value)

    def shifted(self, offset: int):
        if offset == 0:
            return self
        return _ShiftedTracer(self._base, self._offset + offset)


def _split_track(track: str) -> tuple[str, str]:
    """``"group/name"`` -> (process, thread); bare tracks are their own
    process with a same-named thread."""
    if "/" in track:
        group, _, lane = track.partition("/")
        return group, lane
    return track, track


def chrome_trace_events(tracer) -> list[dict]:
    """Convert collected events to Chrome ``trace_event`` dicts.

    Track groups become trace processes and lanes become threads, both
    announced with ``ph:"M"`` metadata events so viewers show readable
    names.  One simulated cycle maps to one microsecond; spans are
    ``ph:"X"`` complete events whose ``dur`` covers the closed cycle
    interval (a one-cycle span has ``dur`` 1).
    """
    tracks = sorted({event[1] for event in tracer.events})
    pids: dict[str, int] = {}
    tids: dict[str, tuple[int, int]] = {}
    out: list[dict] = []
    for track in tracks:
        process, lane = _split_track(track)
        if process not in pids:
            pids[process] = len(pids) + 1
            out.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        pid = pids[process]
        tid = 1 + sum(1 for key in tids if tids[key][0] == pid)
        tids[track] = (pid, tid)
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    for kind, track, name, start, end, args in tracer.events:
        pid, tid = tids[track]
        if kind == KIND_SPAN:
            out.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": _split_track(track)[0],
                    "pid": pid,
                    "tid": tid,
                    "ts": start,
                    "dur": end - start + 1,
                    "args": dict(args),
                }
            )
        elif kind == KIND_INSTANT:
            out.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": name,
                    "cat": _split_track(track)[0],
                    "pid": pid,
                    "tid": tid,
                    "ts": start,
                    "args": dict(args),
                }
            )
        else:  # counter
            out.append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": pid,
                    "tid": tid,
                    "ts": start,
                    "args": dict(args),
                }
            )
    return out


def to_chrome_trace(tracer) -> dict:
    """The full JSON-object form of the Chrome trace format."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated cycles (1 cycle = 1us)"},
    }


def write_chrome_trace(tracer, path) -> Path:
    """Serialise the trace to ``path``; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(to_chrome_trace(tracer), indent=1, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return target
