"""Human-readable timelines of simulated accesses.

Renders an ASCII Gantt chart of a simulation — one row per module, one
column per cycle — used by the examples and handy when debugging a
non-conflict-free ordering.  Glyphs: digits mark the service cycles of a
request (its element index modulo 10), ``.`` is idle.
"""

from __future__ import annotations

from repro.memory.kernel import AccessResult


def render_timeline(
    result: AccessResult,
    module_count: int,
    max_cycles: int = 120,
) -> str:
    """ASCII Gantt chart of module activity.

    Parameters
    ----------
    result:
        A finished simulation.
    module_count:
        Number of rows (modules) to draw.
    max_cycles:
        Clip the chart after this many cycles to keep output readable.

    The chart starts at the run's cycle 1, so it is as wide as the
    stream's last delivery cycle.
    """
    last = result.last_delivery_cycle
    cycles = min(last, max_cycles)
    grid = [["."] * cycles for _ in range(module_count)]
    for request in result.requests:
        if request.start_cycle is None or request.finish_cycle is None:
            continue
        glyph = str(request.element_index % 10)
        for cycle in range(request.start_cycle, request.finish_cycle + 1):
            if 1 <= cycle <= cycles:
                grid[request.module][cycle - 1] = glyph
    header = "cycle   " + "".join(
        str((c + 1) // 10 % 10) if (c + 1) % 10 == 0 else " " for c in range(cycles)
    )
    lines = [header]
    for module_index, row in enumerate(grid):
        lines.append(f"mod {module_index:3d} " + "".join(row))
    if last > max_cycles:
        lines.append(f"... clipped at cycle {max_cycles} of {last}")
    return "\n".join(lines)


def describe_result(result: AccessResult, service_ratio: int) -> str:
    """One-paragraph summary of a simulation outcome."""
    minimum = service_ratio + result.element_count + 1
    status = "conflict-free" if result.conflict_free else (
        f"{result.wait_count} queued requests, "
        f"{result.issue_stall_cycles} issue stalls"
    )
    return (
        f"{result.element_count} elements in {result.latency} cycles "
        f"(minimum {minimum}, excess {result.latency - minimum}); {status}"
    )
