"""``repro plan``, ``repro window`` and ``repro survey``: the paper's
matched (Eq. 1) and unmatched (Eq. 2) designs, one access, one window
or one range of strides at a time.  ``window`` is closed-form, so only
``plan`` and ``survey`` import the simulator, inside their handlers."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.core.vector import VectorAccess
from repro.core.windows import MatchedDesign, UnmatchedDesign
from repro.report.tables import render_table

if TYPE_CHECKING:
    from repro.scenarios import ScenarioSpec


def configure(command: str, parser: argparse.ArgumentParser, argv):
    """Add ``command``'s arguments to its parser; returns its handler."""
    if command == "plan":
        parser.add_argument(
            "--t", type=int, default=3, help="T = 2**t (default 3)"
        )
        parser.add_argument("--s", type=int, default=4, help="Eq. (1)/(2) s")
        parser.add_argument(
            "--y", type=int, default=None,
            help="Eq. (2) y; presence selects the unmatched M=T**2 memory",
        )
        parser.add_argument("--base", type=int, default=0, help="A1")
        parser.add_argument("--stride", type=int, required=True)
        parser.add_argument("--length", type=int, default=128)
        parser.add_argument(
            "--mode",
            choices=["auto", "ordered", "subsequence", "conflict_free"],
            default="auto",
        )
        parser.add_argument("--q", type=int, default=1, help="input buffers")
        parser.add_argument(
            "--qp", type=int, default=1, help="output buffers"
        )
        parser.add_argument(
            "--timeline",
            action="store_true",
            help="print the module Gantt chart",
        )
        return command_plan
    if command == "window":
        parser.add_argument(
            "--lam", type=int, required=True, help="L = 2**lam"
        )
        parser.add_argument("--t", type=int, default=3)
        parser.add_argument(
            "--unmatched", action="store_true", help="use the M = T**2 design"
        )
        return command_window
    parser.add_argument("--t", type=int, default=3)
    parser.add_argument("--s", type=int, default=4)
    parser.add_argument("--y", type=int, default=None)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--max-stride", type=int, default=32)
    return command_survey


def design_spec(
    t: int, s: int, y: int | None, q: int = 1, qp: int = 1
) -> ScenarioSpec:
    """The machine-only spec of the matched (Eq. 1) design, or of the
    unmatched (Eq. 2) one when ``y`` is given."""
    from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec

    if y is None:
        mapping = ComponentSpec.of("matched-xor", t=t, s=s)
    else:
        mapping = ComponentSpec.of("section-xor", t=t, s=s, y=y)
    return ScenarioSpec(mapping=mapping, memory=MemorySpec(t=t, q=q, qp=qp))


def command_plan(args: argparse.Namespace) -> int:
    from repro.memory.trace import describe_result, render_timeline
    from repro.scenarios import build_machine

    config, planner, system = build_machine(
        design_spec(args.t, args.s, args.y, args.q, args.qp)
    )
    vector = VectorAccess(args.base, args.stride, args.length)

    plan = planner.plan(vector, mode=args.mode)
    # The kernel directly, not simulate(): --timeline draws each
    # request's timing record, which a ScenarioResult does not carry.
    result = system.run_plan(plan)
    print(f"memory:  {config.describe()}")
    print(f"access:  {vector} (family x={vector.family}, sigma={vector.sigma})")
    print(f"scheme:  {plan.scheme}")
    print(f"result:  {describe_result(result, config.service_ratio)}")
    if args.timeline:
        print(render_timeline(result, config.module_count))
    return 0


def command_window(args: argparse.Namespace) -> int:
    from repro.analysis.efficiency import efficiency
    from repro.analysis.fractions import conflict_free_fraction

    if args.unmatched:
        design = UnmatchedDesign.recommended(args.lam, args.t)
        window = design.fused_window()
        print(
            f"unmatched design: M={design.module_count}, T={1 << args.t}, "
            f"s={design.s}, y={design.y}"
        )
    else:
        matched = MatchedDesign.recommended(args.lam, args.t)
        window = matched.window()
        print(
            f"matched design: M={matched.module_count}, T={1 << args.t}, "
            f"s={matched.s}"
        )
    fraction = conflict_free_fraction(window.high)
    eta = efficiency(window.high, args.t)
    print(f"conflict-free families: {window} ({window.size} families)")
    print(f"stride coverage f = {fraction} ({float(fraction):.6f})")
    print(f"efficiency eta = {float(eta):.4f}")
    return 0


def command_survey(args: argparse.Namespace) -> int:
    from repro.scenarios import simulate_access
    from repro.scenarios.facade import build_config

    design = design_spec(args.t, args.s, args.y)
    config = build_config(design)
    minimum = config.service_ratio + args.length + 1
    rows = []
    for stride in range(1, args.max_stride + 1):
        vector = VectorAccess(0, stride, args.length)
        result = simulate_access(design, vector)
        rows.append(
            [
                stride,
                vector.family,
                result.schemes[0],
                result.latency,
                result.conflict_free,
            ]
        )
    print(f"{config.describe()}, L={args.length}, minimum latency {minimum}")
    print(
        render_table(
            ["stride", "family", "scheme", "latency", "conflict-free"], rows
        )
    )
    return 0
