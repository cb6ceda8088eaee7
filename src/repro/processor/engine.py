"""The program engine: one execution API for whole vector programs.

:class:`ProgramEngine` is the single path from a :class:`Program` (an
instruction list, whether hand-built, assembled from text, or generated
by the strip-mining kernel builders) to a machine-level outcome: it
builds a fresh :class:`~repro.processor.decoupled.DecoupledVectorMachine`,
preloads memory, runs the program, and packages per-instruction
timelines, the per-access memory-simulator results, overlap accounting
and an end-to-end numerical-correctness verdict into one
:class:`ProgramRun`.

The scenario facade drives *both* of its decoupled paths through this
API — the legacy single-VLOAD workload drive (via
:func:`single_load_program`) and the first-class ``program`` scenario
component — so cycle accounting, chaining behaviour and memory metrics
are defined in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isnan

from repro.core.gather import IndexedMode
from repro.core.planner import PlanMode
from repro.core.vector import VectorAccess
from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.processor.decoupled import DecoupledVectorMachine, MachineResult
from repro.processor.isa import VAdd, VLoad
from repro.processor.program import MemoryInit, Program

#: Schema of one timeline row, in order (see :attr:`ProgramRun.timeline`).
#: ``port`` and ``stream`` record per-instruction memory occupancy: the
#: address/result port the access issued on and the concurrent stream
#: slot it occupied in its batch (``None`` for execute instructions).
TIMELINE_FIELDS = (
    "position",
    "mnemonic",
    "unit",
    "start_cycle",
    "end_cycle",
    "duration",
    "mode",
    "conflict_free",
    "port",
    "stream",
)

#: Absolute tolerance of the numerical-correctness check.  The modelled
#: datapath is exact (Python floats end to end), so this only absorbs
#: representation noise in caller-supplied expected values.
VERIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProgramRun:
    """Everything one program execution produced.

    ``timeline`` is a tuple of plain rows matching :data:`TIMELINE_FIELDS`
    — JSON-safe by construction, so scenario results and lab artifacts
    can carry it verbatim.  ``memory_runs`` pairs each memory
    instruction's plan scheme with its cycle-accurate
    :class:`~repro.memory.system.AccessResult`, in instruction order.
    ``outputs_correct`` is ``None`` when the caller declared no expected
    memory contents.
    """

    result: MachineResult
    memory_runs: tuple
    timeline: tuple[tuple, ...]
    total_cycles: int
    overlap_fraction: float
    outputs_correct: bool | None
    output_errors: tuple[str, ...]
    machine: DecoupledVectorMachine = field(repr=False, compare=False)
    stream_concurrency_peak: int = 1

    @property
    def chained_count(self) -> int:
        return self.result.chained_count()

    @property
    def conflict_free_loads(self) -> int:
        return self.result.conflict_free_loads()


def single_load_program(vector: VectorAccess, chaining: bool) -> Program:
    """The implicit program of the workload-driven decoupled scenario:
    one VLOAD, plus a dependent VADD when chaining (which makes the
    chained overlap observable)."""
    instructions = [VLoad(1, vector.base, vector.stride, vector.length)]
    if chaining:
        instructions.append(VAdd(2, 1, 1, vector.length))
    return Program(instructions)


class ProgramEngine:
    """Build-and-run harness around the decoupled vector machine.

    Construction captures the machine design point (memory config,
    register geometry, execute pipeline, chaining, plan modes); each
    :meth:`run` materialises a fresh machine so that repeated runs —
    e.g. the chained/decoupled pair behind a measured chaining speedup —
    never share register-file or backing-store state.
    """

    def __init__(
        self,
        config: MemoryConfig,
        register_length: int,
        *,
        register_count: int = 8,
        execute_startup: int = 4,
        chaining: bool = False,
        plan_mode: PlanMode = "auto",
        gather_mode: IndexedMode = "scheduled",
        memory_streams: int | None = None,
        tracer=None,
    ):
        self.config = config
        self.register_length = register_length
        self.register_count = register_count
        self.execute_startup = execute_startup
        self.chaining = chaining
        self.plan_mode: PlanMode = plan_mode
        self.gather_mode: IndexedMode = gather_mode
        self.memory_streams = memory_streams
        self.tracer = tracer

    def build_machine(self) -> DecoupledVectorMachine:
        return DecoupledVectorMachine(
            self.config,
            register_length=self.register_length,
            register_count=self.register_count,
            execute_startup=self.execute_startup,
            chaining=self.chaining,
            plan_mode=self.plan_mode,
            gather_mode=self.gather_mode,
            memory_streams=self.memory_streams,
            tracer=self.tracer,
        )

    def run(
        self,
        program: Program,
        inputs: tuple[MemoryInit, ...] = (),
        expected: tuple[MemoryInit, ...] = (),
    ) -> ProgramRun:
        """Execute ``program`` on a fresh machine.

        ``inputs`` are ``(base, stride, values)`` vectors preloaded into
        the backing store; ``expected`` are vectors the store must hold
        afterwards (the numerical-correctness check — data really moves
        through the register file and memory, so this catches timing
        models that forget to move it).
        """
        machine = self.build_machine()
        for base, stride, values in inputs:
            machine.store.write_vector(base, stride, values)
        result = machine.run(program)
        memory_timings = result.memory_timings()
        memory_runs = tuple(
            (timing.mode, access)
            for timing, access in zip(
                memory_timings, machine.memory_access_results
            )
        )
        outputs_correct, output_errors = self._verify(machine, expected)
        return ProgramRun(
            result=result,
            memory_runs=memory_runs,
            timeline=tuple(
                (
                    timing.position,
                    timing.mnemonic,
                    timing.unit,
                    timing.start_cycle,
                    timing.end_cycle,
                    timing.duration,
                    timing.mode,
                    timing.conflict_free,
                    timing.port,
                    timing.stream,
                )
                for timing in result.timings
            ),
            total_cycles=result.total_cycles,
            overlap_fraction=_overlap_fraction(result),
            outputs_correct=outputs_correct,
            output_errors=output_errors,
            machine=machine,
            stream_concurrency_peak=result.stream_concurrency_peak,
        )

    def measured_chaining_speedup(
        self,
        program: Program,
        inputs: tuple[MemoryInit, ...] = (),
        chained_run: ProgramRun | None = None,
    ) -> float:
        """Decoupled/chained total-cycle ratio, measured on this design
        point by running ``program`` on two otherwise-identical machines
        (the Section 5-F experiment, for whole kernels).  A caller that
        already holds the chained execution passes it as ``chained_run``
        so only the decoupled baseline is simulated."""
        chained = chained_run or self._variant(chaining=True).run(
            program, inputs
        )
        decoupled = self._variant(chaining=False).run(program, inputs)
        if chained.total_cycles == 0:
            return 1.0
        return decoupled.total_cycles / chained.total_cycles

    def _variant(self, *, chaining: bool) -> "ProgramEngine":
        """This design point with only the chaining switch changed.

        Deliberately untraced: variants are shadow runs (the chaining-
        speedup baseline), and their events would overlay the primary
        run's timeline.
        """
        return ProgramEngine(
            self.config,
            self.register_length,
            register_count=self.register_count,
            execute_startup=self.execute_startup,
            chaining=chaining,
            plan_mode=self.plan_mode,
            gather_mode=self.gather_mode,
            memory_streams=self.memory_streams,
        )

    @staticmethod
    def _verify(
        machine: DecoupledVectorMachine, expected: tuple[MemoryInit, ...]
    ) -> tuple[bool | None, tuple[str, ...]]:
        if not expected:
            return None, ()
        errors: list[str] = []
        for base, stride, values in expected:
            try:
                actual = machine.store.read_vector(base, stride, len(values))
            except SimulationError as error:
                errors.append(f"@{base} stride {stride}: {error}")
                continue
            for index, (want, got) in enumerate(zip(values, actual)):
                # A NaN matches only another NaN.
                close = want == got or abs(want - got) <= VERIFY_TOLERANCE
                if not (close or (isnan(want) and isnan(got))):
                    errors.append(
                        f"@{base + index * stride}: expected {want}, got {got}"
                    )
        return not errors, tuple(errors)


def _overlap_fraction(result: MachineResult) -> float:
    """Fraction of instruction-busy cycles hidden by overlap.

    ``sum(durations)`` counts every cycle each instruction occupied a
    unit; the program finished in ``total_cycles``, so the difference is
    work that ran concurrently across the two units (0.0 for strictly
    serial execution, approaching 0.5 when the units are fully
    overlapped).
    """
    busy = sum(timing.duration for timing in result.timings)
    if busy <= 0:
        return 0.0
    return max(0.0, (busy - result.total_cycles) / busy)
