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
the shared address bus.  Register hazards, address overlap between
stores and anything else, and operand readiness all close a batch, so
program semantics never change — only the overlap.

Timing is accounted per instruction; data really moves (loads read the
backing store, stores write it), so end-to-end numerical correctness is
asserted alongside cycle counts in the tests.

Most callers should not drive this class directly:
:class:`repro.processor.engine.ProgramEngine` is the one execution API
— it builds the machine, preloads memory, runs a program and packages
timelines, memory runs and correctness verdicts; the scenario facade
and the CLI both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gather import IndexedAccess, IndexedMode, plan_indexed
from repro.core.planner import AccessPlanner, PlanMode
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, ProgramError
from repro.hardware.register_file import VectorRegisterFile
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, MemoryKernel
from repro.memory.storage import MemoryStore
from repro.memory.system import access_result_from_run
from repro.obs.tracer import resolve_tracer
from repro.processor.isa import (
    VBinary,
    VGather,
    VLoad,
    VScalarOp,
    VStore,
    VSum,
)
from repro.processor.program import Program


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
    """Outcome of running a program.

    ``stream_concurrency_peak`` is the largest number of memory
    instructions that were in flight together (1 on the classic
    single-port, single-stream machine).
    """

    timings: tuple[InstructionTiming, ...]
    total_cycles: int
    stream_concurrency_peak: int = 1

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


@dataclass
class _LoadRecord:
    """Per-element delivery times of the latest definition of a register."""

    conflict_free: bool
    deliveries: list[tuple[int, int]]  # (delivery_cycle, element), issue order


@dataclass
class _PendingAccess:
    """One memory instruction prepared for (possibly batched) execution."""

    position: int
    instruction: object
    kind: str  # "load" | "store" | "gather" | "scatter"
    plan: object
    stream: tuple[tuple[int, int], ...]
    stores: tuple[int, ...]
    ready_cycle: int
    span: tuple[int, int]  # min/max raw address touched
    is_store_op: bool
    reads: frozenset[int] = field(default_factory=frozenset)
    writes: frozenset[int] = field(default_factory=frozenset)


class DecoupledVectorMachine:
    """A complete machine: processor + register file + memory + store.

    Parameters
    ----------
    config:
        Memory geometry (mapping, T, buffers, ports).
    register_length:
        ``L`` — the vector register length the paper's scheme is designed
        around.
    register_count:
        Number of architectural vector registers.
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
    """

    def __init__(
        self,
        config: MemoryConfig,
        register_length: int,
        register_count: int = 8,
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
        self.register_count = register_count
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
        self.registers = VectorRegisterFile(register_count, register_length)
        #: Per-access memory simulator results of the latest :meth:`run`,
        #: in instruction order — one entry per LOAD/STORE/GATHER/SCATTER.
        #: Lets callers (e.g. the scenario facade) read latency, stalls
        #: and module utilisation without re-simulating the access.
        self.memory_access_results: list = []

    def run(self, program: Program) -> MachineResult:
        """Execute ``program`` to completion; returns cycle accounting.

        The register file and backing store persist across calls, so a
        caller can preload data with :attr:`store` and read results back
        afterwards.
        """
        already_loaded = {
            number
            for number in range(self.register_count)
            if self.registers.register(number).valid_count > 0
        }
        program.validate(self.register_count, predefined=already_loaded)
        results_by_position: dict[int, object] = {}
        timings: dict[int, InstructionTiming] = {}
        memory_free = 1
        execute_free = 1
        register_ready: dict[int, int] = {
            number: 0 for number in already_loaded
        }
        load_records: dict[int, _LoadRecord] = {}
        batch: list[_PendingAccess] = []
        batch_start = 1
        peak = 0

        def batch_registers() -> tuple[frozenset[int], frozenset[int]]:
            reads: set[int] = set()
            writes: set[int] = set()
            for member in batch:
                reads |= member.reads
                writes |= member.writes
            return frozenset(reads), frozenset(writes)

        def finalise() -> None:
            nonlocal memory_free, batch, peak
            if not batch:
                return
            peak = max(peak, len(batch))
            memory_free = self._finalise_batch(
                batch,
                batch_start,
                register_ready,
                load_records,
                timings,
                results_by_position,
            )
            batch = []

        for position, instruction in enumerate(program):
            touched_reads = frozenset(instruction.reads())
            touched_writes = frozenset(instruction.writes())
            if batch:
                pending_reads, pending_writes = batch_registers()
                if touched_reads & pending_writes or touched_writes & (
                    pending_writes | pending_reads
                ):
                    # Register hazard against an in-flight access: drain
                    # the batch so values and ready cycles are current.
                    finalise()
            if instruction.is_memory:
                pending = self._prepare_memory(
                    position, instruction, register_ready
                )
                if batch and self._can_join(pending, batch, batch_start):
                    batch.append(pending)
                else:
                    finalise()
                    batch_start = max(memory_free, pending.ready_cycle + 1)
                    batch = [pending]
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

        self.memory_access_results = [
            results_by_position[position]
            for position in sorted(results_by_position)
        ]
        ordered = tuple(timings[position] for position in sorted(timings))
        total = max((timing.end_cycle for timing in ordered), default=0)
        return MachineResult(
            timings=ordered,
            total_cycles=total,
            stream_concurrency_peak=max(peak, 1),
        )

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
        self, position: int, instruction, register_ready: dict[int, int]
    ) -> _PendingAccess:
        """Plan one memory instruction and capture its constraints."""
        if isinstance(instruction, (VLoad, VStore)):
            vector = self._vector_for(instruction)
            plan = self.planner.plan(vector, mode=self.plan_mode)
            stream = tuple(plan.request_stream())
            if isinstance(instruction, VLoad):
                return _PendingAccess(
                    position,
                    instruction,
                    "load",
                    plan,
                    stream,
                    (),
                    0,
                    _address_span(stream),
                    False,
                    writes=frozenset((instruction.dst,)),
                )
            return _PendingAccess(
                position,
                instruction,
                "store",
                plan,
                stream,
                tuple(range(vector.length)),
                register_ready[instruction.src],
                _address_span(stream),
                True,
                reads=frozenset((instruction.src,)),
            )
        access = self._indexed_access_for(instruction)
        plan = plan_indexed(
            self.config.mapping, self.config.t, access, mode=self.gather_mode
        )
        stream = tuple(plan.request_stream())
        if isinstance(instruction, VGather):
            return _PendingAccess(
                position,
                instruction,
                "gather",
                plan,
                stream,
                (),
                register_ready[instruction.index],
                _address_span(stream),
                False,
                reads=frozenset((instruction.index,)),
                writes=frozenset((instruction.dst,)),
            )
        return _PendingAccess(
            position,
            instruction,
            "scatter",
            plan,
            stream,
            tuple(range(access.length)),
            max(
                register_ready[instruction.src],
                register_ready[instruction.index],
            ),
            _address_span(stream),
            True,
            reads=frozenset((instruction.src, instruction.index)),
        )

    def _can_join(
        self,
        pending: _PendingAccess,
        batch: list[_PendingAccess],
        batch_start: int,
    ) -> bool:
        """May ``pending`` run concurrently with the open batch?

        Register hazards were already drained by the caller; what is
        left is capacity, operand readiness (a late-arriving operand
        must not delay streams already in flight) and memory ordering
        (a store may not overlap any concurrent access's address span).
        """
        if len(batch) >= self.memory_streams:
            return False
        if pending.ready_cycle + 1 > batch_start:
            return False
        for member in batch:
            if pending.is_store_op or member.is_store_op:
                if not _spans_disjoint(pending.span, member.span):
                    return False
        return True

    def _finalise_batch(
        self,
        batch: list[_PendingAccess],
        batch_start: int,
        register_ready: dict[int, int],
        load_records: dict[int, _LoadRecord],
        timings: dict[int, InstructionTiming],
        results_by_position: dict[int, object],
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
            results_by_position[member.position] = result
            if member.kind in ("load", "gather"):
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


def _spans_disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[1] < b[0] or b[1] < a[0]
