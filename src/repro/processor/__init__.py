"""Decoupled access/execute vector processor (Figure 1) and its ISA.

:meth:`DecoupledVectorMachine.run` is the one way to run a vector
program: ``time(resolve(...))``.  :meth:`DecoupledVectorMachine.resolve`
preloads memory, runs the value pass and verifies the outputs;
:meth:`DecoupledVectorMachine.time` times the resolved accesses, on this
machine or any other that plans alike, and returns every timing and
memory result in one :class:`MachineResult`.
:meth:`OpenBatch.refusal` is the one batching rule, shared with the
static hazard analysis in :mod:`repro.check.hazards`.
"""

from repro.processor.chaining import (
    CHAINING_MODEL_TOLERANCE,
    chained_pair_latency,
    chaining_speedup,
    conflict_free_load_latency,
    decoupled_pair_latency,
    program_chaining_speedup,
    program_latency,
)
from repro.processor.decoupled import (
    TIMELINE_FIELDS,
    VERIFY_TOLERANCE,
    BatchBreak,
    DecoupledVectorMachine,
    InstructionTiming,
    MachineResult,
    OpenBatch,
    single_load_program,
)
from repro.processor.isa import (
    Instruction,
    VAdd,
    VBinary,
    VGather,
    VLoad,
    VMul,
    VSAdd,
    VScalarOp,
    VScale,
    VScatter,
    VStore,
    VSub,
    VSum,
)
from repro.processor.program import (
    Program,
    assemble,
    disassemble,
    parse_directive,
    parse_source,
)
from repro.processor.stripmine import (
    Strip,
    daxpy_program,
    elementwise_product_program,
    fft_butterfly_program,
    full_strip_fraction,
    load_store_copy_program,
    saxpy_chain_program,
    strip_bounds,
)

__all__ = [
    "BatchBreak",
    "CHAINING_MODEL_TOLERANCE",
    "DecoupledVectorMachine",
    "Instruction",
    "InstructionTiming",
    "MachineResult",
    "OpenBatch",
    "Program",
    "TIMELINE_FIELDS",
    "Strip",
    "VAdd",
    "VBinary",
    "VGather",
    "VLoad",
    "VMul",
    "VSAdd",
    "VScalarOp",
    "VScale",
    "VScatter",
    "VStore",
    "VSub",
    "VSum",
    "VERIFY_TOLERANCE",
    "assemble",
    "chained_pair_latency",
    "chaining_speedup",
    "conflict_free_load_latency",
    "daxpy_program",
    "decoupled_pair_latency",
    "disassemble",
    "elementwise_product_program",
    "fft_butterfly_program",
    "full_strip_fraction",
    "load_store_copy_program",
    "parse_directive",
    "parse_source",
    "program_chaining_speedup",
    "program_latency",
    "saxpy_chain_program",
    "single_load_program",
    "strip_bounds",
]
