"""``repro run``: execute a vector-assembly file on the decoupled machine."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.paper import design_spec
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.program import parse_source
from repro.scenarios.facade import build_config


def configure(command: str, parser: argparse.ArgumentParser, argv):
    """Add ``repro run``'s arguments to its parser; returns its handler."""
    parser.add_argument("file", help="assembly file (see `repro run --help`)")
    parser.add_argument("--t", type=int, default=3)
    parser.add_argument("--s", type=int, default=4)
    parser.add_argument("--y", type=int, default=None)
    parser.add_argument("--register-length", type=int, default=128)
    parser.add_argument("--chaining", action="store_true")
    parser.add_argument(
        "--dump",
        type=_memory_vector,
        default=None,
        metavar="BASE:STRIDE:COUNT",
        help="print a memory vector after the run",
    )
    return command_run


def _memory_vector(text: str) -> tuple[int, int, int]:
    """``BASE:STRIDE:COUNT`` as three integers."""
    try:
        base, stride, count = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BASE:STRIDE:COUNT (three integers), got {text!r}"
        ) from None
    return base, stride, count


def command_run(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.is_file():
        print(f"no such program file: {args.file}", file=sys.stderr)
        return 2
    config = build_config(design_spec(args.t, args.s, args.y, q=2))
    # The machine directly, not simulate(): --dump reads its store
    # after the run.
    machine = DecoupledVectorMachine(
        config,
        register_length=args.register_length,
        chaining=args.chaining,
    )
    # Same parser the 'instructions'/'asm' scenario program kinds use:
    # .init/.fill directives preload memory, the rest is the program.
    program, inits = parse_source(path.read_text())
    result = machine.run(program, inputs=inits)

    print(f"memory:  {config.describe()}")
    print(f"program: {len(program)} instructions "
          f"({program.memory_instruction_count()} memory ops)")
    print(f"cycles:  {result.total_cycles} "
          f"(chained ops: {result.chained_count()}, conflict-free loads: "
          f"{result.conflict_free_loads()})")
    for timing in result.timings:
        print(
            f"  [{timing.start_cycle:6d}..{timing.end_cycle:6d}] "
            f"{timing.unit:7s} {timing.mnemonic:8s} {timing.mode}"
        )
    if args.dump:
        base, stride, count = args.dump
        values = machine.store.read_vector(base, stride, count)
        print(f"dump @{base} stride {stride}: {values}")
    return 0
