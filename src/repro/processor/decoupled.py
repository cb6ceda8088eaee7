"""The decoupled access/execute vector machine of Figure 1.

Two independent units share a vector register file:

* the **memory-access module** executes ``VLOAD``/``VSTORE`` (and the
  indexed ``VGATHER``/``VSCATTER``) through the access planner and the
  unified cycle-accurate :class:`~repro.memory.kernel.MemoryKernel`;
* the **execute unit** performs element-wise arithmetic, one element per
  cycle after a short pipeline start-up.

Default operation is fully decoupled: an arithmetic instruction waits
until its operand registers are complete.  With ``chaining=True`` the
Section 5-F mode is enabled: when an operand was produced by a
*conflict-free* load, the execute unit consumes elements in the load's
(deterministic) delivery order, overlapping almost the entire load.  For
non-conflict-free loads the machine falls back to decoupled operation —
precisely the paper's argument for why out-of-order conflict-free access
re-enables chaining that buffered in-order access made impractical.

The access unit sustains up to ``memory_streams`` concurrent in-flight
memory instructions (default: one per memory port, so the classic
single-port machine keeps the paper's serial per-access timing).
Consecutive hazard-free memory instructions become concurrent, named
streams of one kernel run — with two ports the unit issues a second
load while the first drains; with one port the streams interleave on
the shared address bus.  :meth:`OpenBatch.refusal` is the one batching
rule: a register hazard drains the open batch, and stream capacity, a
late operand or a store's overlapping address span keep a memory
instruction out of it, so program semantics never change — only the
overlap.  :func:`repro.check.hazards.predict_batches` applies the same
rule to static facts.

A run makes two passes.  Values do not depend on when elements arrive
(each request carries its element index into a random-access register,
Section 5-D), so the *value pass* runs the program in program order on
whole vectors: it plans each memory instruction, moves its data between
the backing store and the register file in the request stream's issue
order, and records the plan and stream as a :class:`ResolvedAccess`.
The *timing pass*, :meth:`DecoupledVectorMachine.time`, runs those
accesses through the batches, the kernel and the execute unit and moves
no values.  The chaining baseline is the timing pass alone, on a machine
that does not chain.

The machine states what each pass reads of it.  Besides the program,
the value pass reads only its :attr:`~DecoupledVectorMachine.plan_key`
(:class:`PlanKey`), so a :class:`ResolvedProgram` may be timed on any
machine with an equal plan key, whatever its chaining and
:attr:`~DecoupledVectorMachine.timing_key`.  The scenario facade keys
its program memo on the plan key, so a program is resolved once for
every grid point that only times it differently, and files a chaining
point's baseline under the timing key.

Since the timing pass moves no values, a timing bug cannot show up as a
wrong output; the timing pass checks its own schedule instead, for
register RAW order and for hazard-free batches
(:meth:`DecoupledVectorMachine._check_schedule` lists the rules and
says why cross-unit WAR and WAW are not among them).

:meth:`DecoupledVectorMachine.run` is the one way to run a program:
``time(resolve(...))``.  :meth:`~DecoupledVectorMachine.resolve`
preloads memory, runs the value pass and checks the expected memory
contents; the timing pass returns a :class:`MachineResult` with
timings, timeline rows, the per-access memory results and the resolved
program's correctness verdict.  The CLI calls ``run``; the scenario
facade calls the two halves, so that it can reuse a resolved program.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from operator import attrgetter
from typing import NamedTuple

from repro.core.gather import (
    IndexedAccess,
    IndexedMode,
    IndexedPlan,
    plan_indexed,
)
from repro.core.planner import AccessPlan, AccessPlanner, PlanMode
from repro.core.vector import VectorAccess
from repro.errors import (
    ConfigurationError,
    ProgramError,
    RegisterFileError,
    SimulationError,
)
from repro.hardware.register_file import VectorRegisterFile
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, MemoryKernel
from repro.memory.storage import MemoryStore
from repro.memory.system import access_result_from_run
from repro.obs.tracer import resolve_tracer
from repro.processor.isa import (
    VAdd,
    VBinary,
    VLoad,
    VScalarOp,
    VScatter,
    VStore,
    VSum,
)
from repro.processor.program import MemoryInit, Program
from repro.result_schema import TIMELINE_FIELDS

#: Number of architectural vector registers.
REGISTER_COUNT = 8

#: Absolute tolerance of the numerical-correctness check.  The modelled
#: datapath is exact (Python floats end to end), so this only absorbs
#: representation noise in caller-supplied expected values.
VERIFY_TOLERANCE = 1e-9


def check_machine_count(name: str, value: object) -> None:
    """Refuse a machine field that must be an integer >= 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"machine field {name!r} must be an integer, got {value!r}"
        )
    if value < 1:
        raise ProgramError(f"{name} must be >= 1, got {value}")


def single_load_program(vector: VectorAccess, chaining: bool) -> Program:
    """The implicit program of the workload-driven decoupled scenario:
    one VLOAD, plus a dependent VADD when chaining (which makes the
    chained overlap observable)."""
    instructions = [VLoad(1, vector.base, vector.stride, vector.length)]
    if chaining:
        instructions.append(VAdd(2, 1, 1, vector.length))
    return Program(instructions)


@dataclass(frozen=True)
class InstructionTiming:
    """Cycle accounting for one executed instruction.

    ``port`` and ``stream`` record the memory-side occupancy: which
    address/result port the access issued on and which concurrent
    stream slot of its batch it occupied (both ``None`` for execute
    instructions).
    """

    position: int
    mnemonic: str
    unit: str  # "memory" or "execute"
    start_cycle: int
    end_cycle: int
    mode: str  # plan scheme for memory ops, chained/decoupled for execute
    conflict_free: bool | None = None
    port: int | None = None
    stream: int | None = None

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle + 1


#: One :class:`InstructionTiming` as its timeline row.
_TIMELINE_ROW = attrgetter(*TIMELINE_FIELDS)


@dataclass(frozen=True)
class MachineResult:
    """Everything one program run produced.

    ``stream_concurrency_peak`` is the largest number of memory
    instructions that were in flight together (1 on the classic
    single-port, single-stream machine).  ``memory_runs`` pairs each
    memory instruction's plan scheme with its cycle-accurate
    :class:`~repro.memory.system.AccessResult`, in instruction order.
    ``outputs_correct`` and ``output_errors`` are the resolved
    program's output check (``None`` when the run was given no expected
    memory contents).
    """

    timings: tuple[InstructionTiming, ...]
    total_cycles: int
    stream_concurrency_peak: int = 1
    memory_runs: tuple = ()
    outputs_correct: bool | None = None
    output_errors: tuple[str, ...] = ()

    @property
    def timeline(self) -> tuple[tuple, ...]:
        """One plain row of :data:`TIMELINE_FIELDS` values per
        instruction — JSON-safe, so scenario results and lab records can
        carry it verbatim."""
        return tuple(map(_TIMELINE_ROW, self.timings))

    @property
    def overlap_fraction(self) -> float:
        """Fraction of instruction-busy cycles hidden by overlap.

        ``sum(durations)`` counts every cycle each instruction occupied
        a unit; the program finished in ``total_cycles``, so the
        difference is work that ran concurrently across the two units
        (0.0 for strictly serial execution, approaching 0.5 when the
        units are fully overlapped).
        """
        busy = sum(timing.duration for timing in self.timings)
        if busy <= 0:
            return 0.0
        return max(0.0, (busy - self.total_cycles) / busy)

    def memory_timings(self) -> list[InstructionTiming]:
        return [timing for timing in self.timings if timing.unit == "memory"]

    def chained_count(self) -> int:
        return sum(1 for timing in self.timings if timing.mode == "chained")

    def conflict_free_loads(self) -> int:
        return sum(
            1
            for timing in self.timings
            if timing.unit == "memory" and timing.conflict_free
        )


@dataclass(frozen=True)
class BatchBreak:
    """Why the open batch closed before instruction ``position``.

    ``certain`` is False when the break rests on a fact only the run
    knows: when an execute result is ready, or where a gather/scatter's
    data-dependent addresses fall.
    """

    position: int
    reason: str
    certain: bool = True


class OpenBatch:
    """The memory instructions the access unit will serve as one kernel run.

    :meth:`refusal` is the batching rule.  The machine asks it with
    cycle-exact facts; :func:`repro.check.hazards.predict_batches` asks
    it with static ones.  Each member (and each ``access`` asked about)
    has ``position``, ``mnemonic``, ``reads``/``writes`` register sets,
    ``is_store_op``, an address ``span`` (``None`` when it is
    data-dependent and unknown), ``late_operands`` (operands not ready
    when the batch starts) and ``late_assumed`` (whether that lateness
    is an assumption rather than a measured cycle).
    """

    def __init__(self, memory_streams: int) -> None:
        self.memory_streams = memory_streams
        self.members: list = []
        self.reads: set[int] = set()
        self.writes: set[int] = set()

    def add(self, access) -> None:
        self.members.append(access)
        self.reads |= access.reads
        self.writes |= access.writes

    def clear(self) -> None:
        self.members = []
        self.reads = set()
        self.writes = set()

    def refusal(
        self,
        position: int,
        reads: frozenset[int],
        writes: frozenset[int],
        access=None,
    ) -> BatchBreak | None:
        """Why instruction ``position`` may not run with this batch, or
        ``None``.

        The register hazard comes first, for any instruction: reading a
        register the batch writes, or writing one it touches, drains the
        batch.  A memory instruction (``access``) is then refused a
        stream slot, in this order, when the batch is full, when an
        operand is late (a late operand must not delay streams already
        in flight), or when it or a member is a store and their address
        spans overlap.
        """
        hazard = (reads & self.writes) | (writes & (self.writes | self.reads))
        if hazard:
            names = ", ".join(f"V{r}" for r in sorted(hazard))
            return BatchBreak(
                position, f"register hazard on {names} drains the batch"
            )
        if access is None:
            return None
        if len(self.members) >= self.memory_streams:
            return BatchBreak(
                position,
                f"the batch already occupies all "
                f"memory_streams={self.memory_streams} stream slots",
            )
        if access.late_operands:
            names = ", ".join(f"V{r}" for r in access.late_operands)
            if access.late_assumed:
                return BatchBreak(
                    position,
                    f"operand {names} comes from the execute pipeline and "
                    f"is assumed not ready when the batch starts (the "
                    f"machine joins it if it is)",
                    certain=False,
                )
            return BatchBreak(
                position,
                f"operand {names} comes from the execute pipeline and is "
                f"not ready when the batch starts",
            )
        for member in self.members:
            if not (access.is_store_op or member.is_store_op):
                continue
            if access.span is None or member.span is None:
                return BatchBreak(
                    position,
                    f"{access.mnemonic} at {position} has a "
                    f"data-dependent address span; with a store in the "
                    f"pair it must be assumed to overlap instruction "
                    f"{member.position}",
                    certain=False,
                )
            if not (
                access.span[1] < member.span[0]
                or member.span[1] < access.span[0]
            ):
                return BatchBreak(
                    position,
                    f"address span [{access.span[0]}..{access.span[1]}] "
                    f"overlaps instruction {member.position}'s span "
                    f"[{member.span[0]}..{member.span[1]}] with a store "
                    f"involved",
                )
        return None


@dataclass(frozen=True)
class ResolvedAccess:
    """One memory instruction as the value pass resolved it: its plan,
    request stream and the facts :meth:`OpenBatch.refusal` reads."""

    position: int
    instruction: object
    plan: AccessPlan | IndexedPlan
    stream: tuple[tuple[int, int], ...]
    stores: tuple[int, ...]
    span: tuple[int, int]  # min/max raw address touched
    is_store_op: bool
    reads: frozenset[int]
    writes: frozenset[int]

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic  # type: ignore[attr-defined]


class PlanKey(NamedTuple):
    """Everything a program's value pass reads of its machine: a
    :class:`ResolvedProgram` fits only a machine with an equal key.

    ``mapping`` is the mapping's
    :meth:`~repro.mappings.base.AddressMapping.address_key`, or the
    mapping itself when it has none, which equals only itself.
    """

    mapping: object
    t: int
    register_length: int
    plan_mode: str
    gather_mode: str

    @classmethod
    def of(
        cls,
        config: MemoryConfig,
        register_length: int,
        plan_mode: PlanMode = "auto",
        gather_mode: IndexedMode = "scheduled",
    ) -> PlanKey:
        """The plan key of a machine built with these arguments, known
        before it is built (the scenario facade looks a program up
        first, so that a program's error comes before the machine's)."""
        mapping = config.mapping
        address = mapping.address_key() or mapping
        return cls(address, config.t, register_length, plan_mode, gather_mode)


@dataclass(frozen=True)
class ResolvedProgram:
    """A program after the value pass: each memory instruction's resolved
    access, in program order, what resolved them and the output check.

    The plans fit only a machine with an equal ``plan_key``; the rest
    of the machine only times them.  The ``predefined`` registers held
    values before the run, so they are ready at cycle 0.
    ``outputs_correct`` and ``output_errors`` are the check of the
    expected memory contents after the value pass (``None`` and empty
    when none were given); every timing of the program carries them.
    """

    program: Program
    accesses: tuple[ResolvedAccess, ...]
    plan_key: PlanKey
    predefined: frozenset[int]
    outputs_correct: bool | None = None
    output_errors: tuple[str, ...] = ()


@dataclass
class _PendingAccess:
    """A resolved access asking to join the open batch, with the
    cycle-exact facts :meth:`OpenBatch.refusal` reads; every other
    attribute is the resolved access's."""

    access: ResolvedAccess
    ready_cycle: int
    late_operands: tuple[int, ...]
    #: Lateness here is measured in cycles, never assumed.
    late_assumed = False

    def __getattr__(self, name: str):
        return getattr(self.access, name)


@dataclass
class _LoadRecord:
    """How the latest load into a register delivered: its request stream,
    each request's delivery cycle in its batch's clock (issue order) and
    that batch's offset to program cycles."""

    conflict_free: bool
    stream: tuple[tuple[int, int], ...]
    delivery_cycles: tuple[int, ...]
    offset: int

    def feed_window(self, length: int) -> tuple[int, int]:
        """First and last program cycle at which elements ``0..length-1``
        were delivered — what a chained execute of ``length`` waits on."""
        cycles = [
            cycle
            for (element, _address), cycle in zip(
                self.stream, self.delivery_cycles
            )
            if element < length
        ]
        return min(cycles) + self.offset, max(cycles) + self.offset


class DecoupledVectorMachine:
    """A complete machine: processor + register file + memory + store.

    Parameters
    ----------
    config:
        Memory geometry (mapping, T, buffers, ports).
    register_length:
        ``L`` — the vector register length the paper's scheme is designed
        around.
    execute_startup:
        Pipeline depth of the execute unit (cycles before the first
        result element).
    chaining:
        Enable the Section 5-F chained LOAD -> EXECUTE mode.
    plan_mode:
        Forwarded to the access planner (``"auto"`` by default; the
        benches use ``"ordered"`` to model the baseline machine).
    memory_streams:
        Maximum concurrent in-flight memory instructions the access
        unit sustains.  ``None`` (the default) tracks the memory's port
        count, so the classic single-port machine serialises accesses
        exactly as before.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Instruction spans
        land on the ``machine/memory`` and ``machine/execute`` tracks
        (matching the timeline rows cycle for cycle); each memory
        batch's kernel-level events are emitted at absolute program
        cycles via a shifted sub-tracer.

    The machine has :data:`REGISTER_COUNT` vector registers.
    """

    def __init__(
        self,
        config: MemoryConfig,
        register_length: int,
        execute_startup: int = 4,
        chaining: bool = False,
        plan_mode: PlanMode = "auto",
        gather_mode: IndexedMode = "scheduled",
        memory_streams: int | None = None,
        tracer=None,
    ):
        check_machine_count("register_length", register_length)
        check_machine_count("execute_startup", execute_startup)
        if not isinstance(chaining, bool):
            raise ConfigurationError(
                f"machine field 'chaining' must be a boolean, got {chaining!r}"
            )
        if memory_streams is not None and (
            not isinstance(memory_streams, int)
            or isinstance(memory_streams, bool)
            or memory_streams < 1
        ):
            raise ConfigurationError(
                f"machine field 'memory_streams' must be an integer >= 1 "
                f"(or None to track the port count), got {memory_streams!r}"
            )
        self.config = config
        self.register_length = register_length
        self.execute_startup = execute_startup
        self.chaining = chaining
        self.plan_mode: PlanMode = plan_mode
        self.gather_mode: IndexedMode = gather_mode
        self.memory_streams = (
            memory_streams if memory_streams is not None else config.ports
        )
        self.tracer = resolve_tracer(tracer)
        self.planner = AccessPlanner(config.mapping, config.t)
        self.store = MemoryStore(config.mapping)
        self.registers = VectorRegisterFile(REGISTER_COUNT, register_length)

    @property
    def plan_key(self) -> PlanKey:
        """What the value pass reads of this machine (:class:`PlanKey`)."""
        return PlanKey.of(
            self.config, self.register_length, self.plan_mode, self.gather_mode
        )

    @property
    def timing_key(self) -> tuple:
        """What the timing pass reads of this machine besides the plan
        key and chaining: the memory's queue capacities q and q', its
        ports, ``memory_streams`` and ``execute_startup``.  Machines
        with equal plan and timing keys that do not chain time a
        resolved program to the same cycles."""
        config = self.config
        return (config.input_capacity, config.output_capacity, config.ports,
                self.memory_streams, self.execute_startup)

    def run(
        self,
        program: Program,
        inputs: tuple[MemoryInit, ...] = (),
        expected: tuple[MemoryInit, ...] = (),
    ) -> MachineResult:
        """Execute ``program`` to completion and return the whole run:
        ``time(resolve(program, inputs, expected))``.

        Value and planning errors are therefore raised in program order,
        before any timing.
        """
        return self.time(self.resolve(program, inputs, expected))

    def resolve(
        self,
        program: Program,
        inputs: tuple[MemoryInit, ...] = (),
        expected: tuple[MemoryInit, ...] = (),
    ) -> ResolvedProgram:
        """The value pass with its data contract: preload, run, check.

        ``inputs`` are ``(base, stride, values)`` vectors written to the
        backing store first; ``expected`` are vectors the store must
        hold afterwards (the numerical-correctness check, carried on the
        result).  In between, the program runs in program order, moving
        every value and resolving every memory instruction's plan and
        request stream.  The register file and backing store persist
        across calls, so a caller can also preload data through
        :attr:`store` and read results back afterwards.
        """
        for base, stride, values in inputs:
            self.store.write_vector(base, stride, values)
        predefined, accesses = self._execute(program)
        outputs_correct, output_errors = self._verify(expected)
        return ResolvedProgram(
            program, accesses, self.plan_key, predefined, outputs_correct,
            output_errors,
        )

    def time(self, resolved: ResolvedProgram) -> MachineResult:
        """The timing pass: time a resolved program on this machine.

        Memory instructions form batches by :meth:`OpenBatch.refusal`,
        each batch is one kernel run, and each execute instruction
        chains or waits; the register file and the store are neither
        read nor written.  ``resolved`` may come from another machine's
        :meth:`resolve` with an equal :attr:`plan_key`, whatever its
        :attr:`timing_key` and chaining: that is how the chaining
        baseline and the scenario facade's grid points time one
        resolved program.  A machine with another plan key raises
        :class:`ConfigurationError` naming the first part that differs.
        The schedule is checked before returning
        (:meth:`_check_schedule`), and the result carries the resolved
        program's output verdict.
        """
        for name, planned, here in zip(
            PlanKey._fields, resolved.plan_key, self.plan_key
        ):
            if planned != here:
                raise ConfigurationError(
                    f"the program was resolved on a machine with another "
                    f"{name}; its plans do not fit this machine"
                )
        memory_runs: list[tuple[str, object]] = []
        timings: dict[int, InstructionTiming] = {}
        memory_free = 1
        execute_free = 1
        register_ready = dict.fromkeys(resolved.predefined, 0)
        load_records: dict[int, _LoadRecord] = {}
        batch = OpenBatch(self.memory_streams)
        batch_start = 1
        peak = 0
        accesses = iter(resolved.accesses)

        def finalise() -> None:
            nonlocal memory_free, peak
            if not batch.members:
                return
            peak = max(peak, len(batch.members))
            memory_free = self._finalise_batch(
                batch.members,
                batch_start,
                register_ready,
                load_records,
                timings,
                memory_runs,
            )
            batch.clear()

        for position, instruction in enumerate(resolved.program):
            reads = frozenset(instruction.reads())
            writes = frozenset(instruction.writes())
            if batch.members and batch.refusal(position, reads, writes):
                # Register hazard against an in-flight access: drain the
                # batch so ready cycles are current before a memory
                # instruction is asked about again below.
                finalise()
            if instruction.is_memory:
                # An operand is late when it is ready after the open
                # batch's first cycle.
                operands = instruction.reads()
                pending = _PendingAccess(
                    next(accesses),
                    max((register_ready[r] for r in operands), default=0),
                    tuple(
                        r for r in operands if register_ready[r] + 1 > batch_start
                    ),
                )
                if not batch.members or batch.refusal(
                    position, reads, writes, pending
                ):
                    finalise()
                    batch_start = max(memory_free, pending.ready_cycle + 1)
                batch.add(pending.access)
            else:
                timing, execute_free = self._run_execute(
                    position,
                    instruction,
                    execute_free,
                    register_ready,
                    load_records,
                )
                timings[position] = timing
        finalise()

        ordered = tuple(timings[position] for position in sorted(timings))
        self._check_schedule(resolved, ordered, memory_runs)
        return MachineResult(
            timings=ordered,
            total_cycles=max((timing.end_cycle for timing in ordered), default=0),
            stream_concurrency_peak=max(peak, 1),
            memory_runs=tuple(memory_runs),
            outputs_correct=resolved.outputs_correct,
            output_errors=resolved.output_errors,
        )

    def _verify(
        self, expected: tuple[MemoryInit, ...]
    ) -> tuple[bool | None, tuple[str, ...]]:
        if not expected:
            return None, ()
        errors: list[str] = []
        for base, stride, values in expected:
            try:
                actual = self.store.read_vector(base, stride, len(values))
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

    def _length(self, instruction) -> int:
        """An instruction's element count (the register length when it
        names none)."""
        if instruction.length is None:
            return self.register_length
        return instruction.length

    # -- value pass -----------------------------------------------------

    def _execute(
        self, program: Program
    ) -> tuple[frozenset[int], tuple[ResolvedAccess, ...]]:
        """The value pass: run ``program`` in program order on whole
        vectors, resolving each memory instruction on the way.  Returns
        the registers defined before the run and the resolved
        accesses."""
        predefined = frozenset(
            number
            for number in range(REGISTER_COUNT)
            if self.registers.register(number).valid_count > 0
        )
        program.validate(REGISTER_COUNT, predefined=set(predefined))
        accesses = []
        for position, instruction in enumerate(program):
            if instruction.is_memory:
                accesses.append(self._resolve(position, instruction))
            elif isinstance(instruction, (VBinary, VScalarOp, VSum)):
                self._apply_values(instruction)
            else:  # pragma: no cover - defensive
                raise ProgramError(f"unsupported instruction {instruction!r}")
        return predefined, tuple(accesses)

    def _resolve(self, position: int, instruction) -> ResolvedAccess:
        """Plan one memory instruction and move its data.

        A gather or scatter plans from its index register, whose values
        are current because the pass runs in program order.  Data moves
        in the request stream's issue order, the order the hardware
        issues it, so an error names the first failing address or
        element in that order and, when a scatter repeats an address,
        the last request issued wins.  A load must deliver each of its
        elements exactly once.
        """
        length = self._length(instruction)
        if length > self.register_length:
            raise ProgramError(
                f"access length {length} exceeds the register length "
                f"{self.register_length}"
            )
        if isinstance(instruction, (VLoad, VStore)):
            plan = self.planner.plan(
                VectorAccess(instruction.base, instruction.stride, length),
                mode=self.plan_mode,
            )
        else:
            indices = self.registers.register(instruction.index).prefix(length)
            plan = plan_indexed(
                self.config.mapping,
                self.config.t,
                IndexedAccess(instruction.base, [int(i) for i in indices]),
                mode=self.gather_mode,
            )
        stream = tuple(plan.request_stream())
        is_store_op = isinstance(instruction, (VStore, VScatter))
        if is_store_op:
            source = self.registers.register(instruction.src)
            self.store.write_stream(stream, source.read)
        else:
            values = self.store.read_stream(stream, length)
            if len(stream) != length or None in values:
                raise SimulationError(
                    f"instruction {position} ({instruction.mnemonic}): its "
                    f"request stream does not deliver each of elements "
                    f"0..{length - 1} exactly once"
                )
            self.registers.register(instruction.dst).set(values)
        return ResolvedAccess(
            position,
            instruction,
            plan,
            stream,
            tuple(range(length)) if is_store_op else (),
            _address_span(stream),
            is_store_op,
            frozenset(instruction.reads()),
            frozenset(instruction.writes()),
        )

    def _apply_values(self, instruction) -> None:
        """Compute an execute instruction's destination from the first
        ``length`` elements of its operands."""
        length = self._length(instruction)
        destination = self.registers.register(instruction.writes()[0])
        # Cleared before the operands are read, so an instruction whose
        # destination is also an operand reads it empty and fails.
        destination.clear()
        if isinstance(instruction, VBinary):
            left = self.registers.register(instruction.a)
            right = self.registers.register(instruction.b)
            try:
                values = list(
                    map(instruction.apply, left.prefix(length), right.prefix(length))
                )
            except RegisterFileError:
                # Name the lowest element either operand lacks, as an
                # element-wise read of both would.
                for index in range(length):
                    left.read(index)
                    right.read(index)
                raise
        elif isinstance(instruction, VSum):
            source = self.registers.register(instruction.src).prefix(length)
            values = [sum(source)] * length
        else:
            source = self.registers.register(instruction.src).prefix(length)
            values = list(map(instruction.apply, source))
        destination.set(values)

    # -- timing pass ----------------------------------------------------

    def _finalise_batch(
        self,
        batch: list[ResolvedAccess],
        batch_start: int,
        register_ready: dict[int, int],
        load_records: dict[int, _LoadRecord],
        timings: dict[int, InstructionTiming],
        memory_runs: list[tuple[str, object]],
    ) -> int:
        """Run the batch (one kernel run) and record its timing.

        Returns the cycle the memory unit frees (all streams drained).
        """
        offset = batch_start - 1
        # Kernel events from this batch land at absolute program cycles
        # (the batch's own clock starts at 1); a null tracer shifts to
        # itself, so the untraced path is unchanged.
        batch_tracer = self.tracer.shifted(offset)
        # Every plan was made over this machine's mapping, so its module
        # sequence feeds the kernel as is.
        run = MemoryKernel(self.config, tracer=batch_tracer).run(
            [
                KernelStream.of(
                    f"i{member.position}",
                    member.stream,
                    stores=member.stores,
                    modules=member.plan.modules,
                )
                for member in batch
            ]
        )
        unit_free = batch_start
        for slot, member in enumerate(batch):
            stream = run.streams[slot]
            result = access_result_from_run(
                run, slot, self.config.service_ratio
            )
            end = offset + stream.last_delivery_cycle
            unit_free = max(unit_free, end + 1)
            # Batches run, and their members join, in program order.
            memory_runs.append((member.plan.scheme, result))
            if not member.is_store_op:
                register_ready[member.instruction.dst] = end
                load_records[member.instruction.dst] = _LoadRecord(
                    result.conflict_free,
                    member.stream,
                    result.requests.delivery_cycles,
                    offset,
                )
            timings[member.position] = InstructionTiming(
                member.position,
                member.instruction.mnemonic,
                "memory",
                batch_start,
                end,
                member.plan.scheme,
                result.conflict_free,
                port=stream.port,
                stream=slot,
            )
            if self.tracer.enabled:
                self.tracer.span(
                    "machine/memory",
                    f"{member.instruction.mnemonic} @{member.position}",
                    batch_start,
                    end,
                    position=member.position,
                    mode=member.plan.scheme,
                    conflict_free=result.conflict_free,
                    port=stream.port,
                    stream=slot,
                )
        return unit_free

    def _run_execute(
        self,
        position: int,
        instruction,
        execute_free: int,
        register_ready: dict[int, int],
        load_records: dict[int, _LoadRecord],
    ) -> tuple[InstructionTiming, int]:
        length = self._length(instruction)
        reads = instruction.reads()
        ready_times = {register: register_ready[register] for register in reads}

        chain_register = self._chainable_operand(
            reads, ready_times, load_records
        )
        if chain_register is not None:
            other_ready = max(
                (ready_times[r] for r in reads if r != chain_register),
                default=0,
            )
            first, last = load_records[chain_register].feed_window(length)
            start = max(execute_free, other_ready + 1, first + 1)
            # Element k feeds at start + k at the earliest, and the last
            # one only after the last of them was delivered.
            finish_feed = max(start + length - 1, last + 1)
            end = finish_feed + self.execute_startup
            mode = "chained"
            next_free = finish_feed + 1
        else:
            operands_ready = max(ready_times.values(), default=0)
            start = max(execute_free, operands_ready + 1)
            end = start + self.execute_startup + length - 1
            mode = "decoupled"
            next_free = start + length

        register_ready[instruction.writes()[0]] = end
        load_records.pop(instruction.writes()[0], None)
        if self.tracer.enabled:
            self.tracer.span(
                "machine/execute",
                f"{instruction.mnemonic} @{position}",
                start,
                end,
                position=position,
                mode=mode,
            )
        return (
            InstructionTiming(
                position, instruction.mnemonic, "execute", start, end, mode
            ),
            next_free,
        )

    def _chainable_operand(
        self,
        reads: tuple[int, ...],
        ready_times: dict[int, int],
        load_records: dict[int, _LoadRecord],
    ) -> int | None:
        """Pick the operand to chain on: the latest-ready register whose
        last definition was a conflict-free load (Section 5-F's
        condition: the element arrival order is deterministic)."""
        if not self.chaining or not reads:
            return None
        candidate = max(reads, key=lambda register: ready_times[register])
        record = load_records.get(candidate)
        if record is None or not record.conflict_free:
            return None
        return candidate

    def _check_schedule(
        self,
        resolved: ResolvedProgram,
        timings: tuple[InstructionTiming, ...],
        memory_runs: list[tuple[str, object]],
    ) -> None:
        """Check the timed schedule against the program.

        The check reads only the program, the timeline and the kernel's
        per-request records, never the timing pass's own ready cycles or
        load records.  A violation raises :class:`SimulationError`
        naming both instructions.

        * **RAW**: every instruction starts after each operand's last
          writer ended.  A chained execute may overlap the load it
          chains on, but with length ``n`` it feeds its last element
          only after every element ``0..n-1`` of that load was
          delivered.
        * **Batch**: memory instructions that share a start cycle form
          one batch.  No two of them have a register hazard between
          them, and none pairs a store with an overlapping span.

        Cross-unit WAR and WAW are not checked, because the model does
        not enforce them: a load may rewrite a register that an earlier
        execute is still reading.  Values are applied in program order,
        so outputs do not show it.
        """
        loads = {
            access.position: (access, result)
            for access, (_scheme, result) in zip(resolved.accesses, memory_runs)
            if not access.is_store_op
        }
        writer: dict[int, int] = {}  # register -> its last writer so far
        for position, instruction in enumerate(resolved.program):
            timing = timings[position]
            for register in instruction.reads():
                source = writer.get(register)
                if source is None or timing.start_cycle > timings[source].end_cycle:
                    continue
                if timing.mode == "chained" and source in loads:
                    access, result = loads[source]
                    length = self._length(instruction)
                    delivered = timings[source].start_cycle - 1 + max(
                        cycle
                        for (element, _address), cycle in zip(
                            access.stream, result.requests.delivery_cycles
                        )
                        if element < length
                    )
                    fed = timing.end_cycle - self.execute_startup
                    if fed > delivered:
                        continue
                    raise SimulationError(
                        f"instruction {position} feeds its last element of "
                        f"V{register} at cycle {fed}, before instruction "
                        f"{source} delivered elements 0..{length - 1} (the "
                        f"last at cycle {delivered})"
                    )
                raise SimulationError(
                    f"instruction {position} reads V{register} at cycle "
                    f"{timing.start_cycle}, before instruction {source} made "
                    f"it ready at cycle {timings[source].end_cycle}"
                )
            for register in instruction.writes():
                writer[register] = position
        batches: dict[int, list[ResolvedAccess]] = {}
        for access in resolved.accesses:
            start = timings[access.position].start_cycle
            batches.setdefault(start, []).append(access)
        for start, members in batches.items():
            for index, later in enumerate(members):
                for earlier in members[:index]:
                    hazard = (later.reads & earlier.writes) | (
                        later.writes & (earlier.reads | earlier.writes)
                    )
                    if hazard:
                        names = ", ".join(f"V{r}" for r in sorted(hazard))
                        problem = f"a register hazard on {names}"
                    elif (earlier.is_store_op or later.is_store_op) and (
                        earlier.span[0] <= later.span[1]
                        and later.span[0] <= earlier.span[1]
                    ):
                        problem = "overlapping address spans and a store"
                    else:
                        continue
                    raise SimulationError(
                        f"instructions {earlier.position} and "
                        f"{later.position} share the batch at cycle {start} "
                        f"despite {problem}"
                    )


def _address_span(stream: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Min/max raw address a request stream touches (overlap test)."""
    addresses = [address for _element, address in stream]
    return min(addresses), max(addresses)

