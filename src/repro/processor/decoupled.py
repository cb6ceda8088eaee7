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

Timing is accounted per instruction; data really moves (loads read the
backing store, stores write it), so end-to-end numerical correctness is
asserted alongside cycle counts in the tests.

:meth:`DecoupledVectorMachine.run` is the one way to run a program: it
preloads memory, runs, checks the expected memory contents and returns
a :class:`MachineResult` with timings, timeline rows, the per-access
memory results and the correctness verdict.  The scenario facade and
the CLI both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

from repro.core.gather import IndexedAccess, IndexedMode, plan_indexed
from repro.core.planner import AccessPlanner, PlanMode
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, ProgramError, SimulationError
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

#: Number of architectural vector registers.
REGISTER_COUNT = 8

#: Schema of one timeline row, in order (see :attr:`MachineResult.timeline`).
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


@dataclass(frozen=True)
class MachineResult:
    """Everything one program run produced.

    ``stream_concurrency_peak`` is the largest number of memory
    instructions that were in flight together (1 on the classic
    single-port, single-stream machine).  ``memory_runs`` pairs each
    memory instruction's plan scheme with its cycle-accurate
    :class:`~repro.memory.system.AccessResult`, in instruction order.
    ``outputs_correct`` is ``None`` when the run was given no expected
    memory contents.
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
        return tuple(
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
            for timing in self.timings
        )

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


@dataclass
class _LoadRecord:
    """Per-element delivery times of the latest definition of a register."""

    conflict_free: bool
    deliveries: list[tuple[int, int]]  # (delivery_cycle, element), issue order


@dataclass
class _PendingAccess:
    """One memory instruction prepared for (possibly batched) execution,
    with the cycle-exact facts :meth:`OpenBatch.refusal` reads."""

    position: int
    instruction: object
    plan: object
    stream: tuple[tuple[int, int], ...]
    stores: tuple[int, ...]
    ready_cycle: int
    span: tuple[int, int]  # min/max raw address touched
    is_store_op: bool
    reads: frozenset[int]
    writes: frozenset[int]
    late_operands: tuple[int, ...]
    #: Lateness here is measured in cycles, never assumed.
    late_assumed = False

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic  # type: ignore[attr-defined]


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
        if register_length < 1:
            raise ProgramError(
                f"register_length must be >= 1, got {register_length}"
            )
        if execute_startup < 1:
            raise ProgramError(
                f"execute_startup must be >= 1, got {execute_startup}"
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

    def run(
        self,
        program: Program,
        inputs: tuple[MemoryInit, ...] = (),
        expected: tuple[MemoryInit, ...] = (),
    ) -> MachineResult:
        """Execute ``program`` to completion and return the whole run.

        ``inputs`` are ``(base, stride, values)`` vectors written to the
        backing store first; ``expected`` are vectors the store must
        hold afterwards (the numerical-correctness check — data really
        moves through the register file and memory, so this catches
        timing models that forget to move it).  The register file and
        backing store persist across calls, so a caller can also preload
        data through :attr:`store` and read results back afterwards.
        """
        for base, stride, values in inputs:
            self.store.write_vector(base, stride, values)
        already_loaded = {
            number
            for number in range(REGISTER_COUNT)
            if self.registers.register(number).valid_count > 0
        }
        program.validate(REGISTER_COUNT, predefined=already_loaded)
        memory_runs: list[tuple[str, object]] = []
        timings: dict[int, InstructionTiming] = {}
        memory_free = 1
        execute_free = 1
        register_ready: dict[int, int] = {
            number: 0 for number in already_loaded
        }
        load_records: dict[int, _LoadRecord] = {}
        batch = OpenBatch(self.memory_streams)
        batch_start = 1
        peak = 0

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

        for position, instruction in enumerate(program):
            reads = frozenset(instruction.reads())
            writes = frozenset(instruction.writes())
            if batch.members and batch.refusal(position, reads, writes):
                # Register hazard against an in-flight access: drain the
                # batch so values and ready cycles are current before a
                # memory instruction is planned (a gather reads its
                # index register) and asked about again below.
                finalise()
            if instruction.is_memory:
                pending = self._prepare_memory(
                    position, instruction, register_ready, batch_start
                )
                if not batch.members or batch.refusal(
                    position, reads, writes, pending
                ):
                    finalise()
                    batch_start = max(memory_free, pending.ready_cycle + 1)
                batch.add(pending)
            elif isinstance(instruction, (VBinary, VScalarOp, VSum)):
                timing, execute_free = self._run_execute(
                    position,
                    instruction,
                    execute_free,
                    register_ready,
                    load_records,
                )
                timings[position] = timing
            else:  # pragma: no cover - defensive
                raise ProgramError(f"unsupported instruction {instruction!r}")
        finalise()

        ordered = tuple(timings[position] for position in sorted(timings))
        total = max((timing.end_cycle for timing in ordered), default=0)
        outputs_correct, output_errors = self._verify(expected)
        return MachineResult(
            timings=ordered,
            total_cycles=total,
            stream_concurrency_peak=max(peak, 1),
            memory_runs=tuple(memory_runs),
            outputs_correct=outputs_correct,
            output_errors=output_errors,
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

    # -- memory unit ----------------------------------------------------

    def _vector_for(self, instruction) -> VectorAccess:
        length = (
            instruction.length
            if instruction.length is not None
            else self.register_length
        )
        if length > self.register_length:
            raise ProgramError(
                f"access length {length} exceeds the register length "
                f"{self.register_length}"
            )
        return VectorAccess(instruction.base, instruction.stride, length)

    def _indexed_access_for(self, instruction) -> IndexedAccess:
        """Build the gather/scatter address set from the index register."""
        length = (
            instruction.length
            if instruction.length is not None
            else self.register_length
        )
        if length > self.register_length:
            raise ProgramError(
                f"access length {length} exceeds the register length "
                f"{self.register_length}"
            )
        index_register = self.registers.register(instruction.index)
        indices = [int(index_register.read(i)) for i in range(length)]
        return IndexedAccess(instruction.base, indices)

    def _prepare_memory(
        self,
        position: int,
        instruction,
        register_ready: dict[int, int],
        batch_start: int,
    ) -> _PendingAccess:
        """Plan one memory instruction and capture the facts the batch
        rule reads.  An operand is late when its ready cycle + 1 is
        later than ``batch_start``, the open batch's first cycle."""
        if isinstance(instruction, (VLoad, VStore)):
            vector = self._vector_for(instruction)
            plan = self.planner.plan(vector, mode=self.plan_mode)
            length = vector.length
        else:
            access = self._indexed_access_for(instruction)
            plan = plan_indexed(
                self.config.mapping, self.config.t, access, mode=self.gather_mode
            )
            length = access.length
        stream = tuple(plan.request_stream())
        is_store_op = isinstance(instruction, (VStore, VScatter))
        operands = instruction.reads()
        return _PendingAccess(
            position,
            instruction,
            plan,
            stream,
            tuple(range(length)) if is_store_op else (),
            max((register_ready[r] for r in operands), default=0),
            _address_span(stream),
            is_store_op,
            frozenset(operands),
            frozenset(instruction.writes()),
            tuple(r for r in operands if register_ready[r] + 1 > batch_start),
        )

    def _finalise_batch(
        self,
        batch: list[_PendingAccess],
        batch_start: int,
        register_ready: dict[int, int],
        load_records: dict[int, _LoadRecord],
        timings: dict[int, InstructionTiming],
        memory_runs: list[tuple[str, object]],
    ) -> int:
        """Run the batch (one kernel run), apply values, record timing.

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
                register = self.registers.register(member.instruction.dst)
                register.clear()
                write, read = register.write, self.store.read
                # Elements are written in issue order; the execute unit
                # sorts the deliveries by cycle when it chains.
                deliveries: list[tuple[int, int]] = []
                for (element, address), delivered in zip(
                    member.stream, result.requests.delivery_cycles
                ):
                    write(element, read(address))
                    deliveries.append((delivered + offset, element))
                register_ready[member.instruction.dst] = end
                load_records[member.instruction.dst] = _LoadRecord(
                    conflict_free=result.conflict_free, deliveries=deliveries
                )
            else:  # store / scatter: move register data into memory
                read = self.registers.register(member.instruction.src).read
                for element, address in member.stream:
                    self.store.write(address, read(element))
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

    # -- execute unit ---------------------------------------------------

    def _run_execute(
        self,
        position: int,
        instruction,
        execute_free: int,
        register_ready: dict[int, int],
        load_records: dict[int, _LoadRecord],
    ) -> tuple[InstructionTiming, int]:
        length = (
            instruction.length
            if instruction.length is not None
            else self.register_length
        )
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
            record = load_records[chain_register]
            deliveries = sorted(record.deliveries)[:length]
            start = max(
                execute_free, other_ready + 1, deliveries[0][0] + 1
            )
            finish_feed = start
            for slot, (delivery_cycle, _element) in enumerate(deliveries):
                finish_feed = max(start + slot, delivery_cycle + 1)
            end = finish_feed + self.execute_startup
            mode = "chained"
            next_free = finish_feed + 1
        else:
            operands_ready = max(ready_times.values(), default=0)
            start = max(execute_free, operands_ready + 1)
            end = start + self.execute_startup + length - 1
            mode = "decoupled"
            next_free = start + length

        self._apply_values(instruction, length)
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

    def _apply_values(self, instruction, length: int) -> None:
        """Move the data: element-wise semantics independent of timing."""
        destination = self.registers.register(instruction.writes()[0])
        destination.clear()
        if isinstance(instruction, VBinary):
            left = self.registers.register(instruction.a)
            right = self.registers.register(instruction.b)
            for index in range(length):
                destination.write(
                    index, instruction.apply(left.read(index), right.read(index))
                )
        elif isinstance(instruction, VSum):
            source = self.registers.register(instruction.src)
            total = sum(source.read(index) for index in range(length))
            for index in range(length):
                destination.write(index, total)
        elif isinstance(instruction, VScalarOp):
            source = self.registers.register(instruction.src)
            for index in range(length):
                destination.write(index, instruction.apply(source.read(index)))
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unsupported execute instruction {instruction!r}")


def _address_span(stream: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """Min/max raw address a request stream touches (overlap test)."""
    addresses = [address for _element, address in stream]
    return min(addresses), max(addresses)

