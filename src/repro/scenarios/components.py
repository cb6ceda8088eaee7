"""The registered scenario components: mappings, workloads, drives, programs.

Importing this module populates the :mod:`repro.scenarios.registry`
tables.  Each factory is a thin adapter from spec parameters to one of
the library's existing classes — the factories own *no* behaviour of
their own, so a machine built from a spec is bit-identical to one wired
by hand.  A factory's signature states its parameters' types, which
the registry checks before the call; the factory body checks values
only (a length of at least 1, a non-zero stride).

Workload factories return lightweight workload objects exposing
``accesses()`` (a list of :class:`~repro.core.vector.VectorAccess` /
:class:`~repro.core.gather.IndexedAccess`) and a ``label``; the
:mod:`repro.scenarios.facade` turns those into request streams via the
selected drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.core.gather import IndexedAccess, IndexedMode
from repro.core.planner import PlanMode
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, ProgramError
from repro.mappings.dynamic import DynamicSchemeSelector
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.matrix import PseudoRandomMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping
from repro.processor.program import MemoryInit, Program, parse_source
from repro.processor.stripmine import (
    daxpy_program,
    elementwise_product_program,
    fft_butterfly_program,
    gather_program,
    load_store_copy_program,
    saxpy_chain_program,
    scatter_program,
    vsum_program,
)
from repro.scenarios.registry import DRIVE, MAPPING, PROGRAM, WORKLOAD, register
from repro.workloads.indexed import (
    bit_reversal_indices,
    block_shuffle_indices,
    csr_row_indices,
    histogram_indices,
)
from repro.workloads.kernels import (
    fft_butterfly_accesses,
    matrix_antidiagonal_access,
    matrix_column_accesses,
    matrix_diagonal_access,
    matrix_row_accesses,
    stencil_accesses,
    transpose_block_accesses,
)

Access = Union[VectorAccess, IndexedAccess]


# -- mappings ------------------------------------------------------------


@register(
    MAPPING,
    "interleaved",
    example={"m": 3},
    summary="Low-order interleaving: module = low m address bits",
)
def _interleaved(m: int, address_bits: int = 32) -> LowOrderInterleaved:
    return LowOrderInterleaved(m, address_bits)


@register(
    MAPPING,
    "field-interleaved",
    example={"m": 3, "s": 4},
    summary="Module = address bits s..s+m-1 (Section 1 baseline)",
)
def _field_interleaved(m: int, s: int, address_bits: int = 32) -> FieldInterleaved:
    return FieldInterleaved(m, s, address_bits)


@register(
    MAPPING,
    "matched-xor",
    example={"t": 3, "s": 4},
    summary="Eq. (1) XOR mapping for matched memories (M = T)",
)
def _matched_xor(t: int, s: int, address_bits: int = 32) -> MatchedXorMapping:
    return MatchedXorMapping(t, s, address_bits)


@register(
    MAPPING,
    "section-xor",
    example={"t": 3, "s": 4, "y": 9},
    summary="Eq. (2) two-level mapping for unmatched memories (M = T**2)",
)
def _section_xor(t: int, s: int, y: int, address_bits: int = 32) -> SectionXorMapping:
    return SectionXorMapping(t, s, y, address_bits)


@register(
    MAPPING,
    "skewed",
    example={"m": 3, "s": 4},
    summary="Row-rotation skewing (Budnik-Kuck / Lawrie family)",
)
def _skewed(
    m: int, s: int, distance: int = 1, address_bits: int = 32
) -> SkewedMapping:
    return SkewedMapping(m, s, distance, address_bits)


@register(
    MAPPING,
    "pseudo-random",
    example={"m": 3},
    summary="Seeded random full-rank XOR matrix (Rau-1991 baseline)",
)
def _pseudo_random(
    m: int, window_bits: int = 16, seed: int = 0, address_bits: int = 32
) -> PseudoRandomMapping:
    return PseudoRandomMapping(m, window_bits, seed, address_bits)


@register(
    MAPPING,
    "dynamic",
    example={"m": 3},
    summary="Per-stride dynamic scheme selection (Harper-1991 baseline)",
)
def _dynamic(m: int, address_bits: int = 32) -> DynamicSchemeSelector:
    # Resolved against the workload's stride by the facade: the selector
    # only becomes a concrete mapping once the dominant stride is known.
    return DynamicSchemeSelector(m, address_bits)


# -- workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named batch of accesses produced by one workload factory."""

    label: str
    items: tuple[Access, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ConfigurationError(
                f"workload {self.label!r} generated no accesses"
            )

    def accesses(self) -> list[Access]:
        return list(self.items)

    @property
    def element_count(self) -> int:
        return sum(item.length for item in self.items)

    def single_vector(self) -> VectorAccess:
        """The workload as one strided vector, when it is one.

        Drives that only accept a constant-stride stream (``figure6``,
        ``decoupled``) call this; anything else is a configuration
        error, reported with the workload's name.
        """
        if len(self.items) == 1 and isinstance(self.items[0], VectorAccess):
            return self.items[0]
        raise ConfigurationError(
            f"workload {self.label!r} is not a single strided vector"
        )


def _vector_workload(label: str, items: Sequence[VectorAccess]) -> Workload:
    return Workload(label, tuple(items))


@register(
    WORKLOAD,
    "strided",
    example={"base": 16, "stride": 12, "length": 128},
    summary="One constant-stride vector access",
)
def _strided(stride: int, length: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"strided(base={base}, stride={stride}, length={length})",
        [VectorAccess(base, stride, length)],
    )


@register(
    WORKLOAD,
    "gather",
    example={"indices": [3, 1, 4, 1, 5, 9, 2, 6], "base": 0},
    summary="Explicit index vector (gather/scatter)",
)
def _gather(indices: Sequence[int], base: int = 0) -> Workload:
    return Workload(
        f"gather({len(indices)} indices)",
        (IndexedAccess(base, list(indices)),),
    )


@register(
    WORKLOAD,
    "bit-reversal",
    example={"bits": 6},
    summary="FFT bit-reversal permutation gather",
)
def _bit_reversal(bits: int, base: int = 0) -> Workload:
    return Workload(
        f"bit-reversal({bits} bits)",
        (IndexedAccess(base, bit_reversal_indices(bits)),),
    )


@register(
    WORKLOAD,
    "csr-gather",
    example={"row_length": 48, "column_count": 4096},
    summary="Column indices of one CSR sparse-matrix row",
)
def _csr_gather(
    row_length: int, column_count: int, seed: int = 0, base: int = 0
) -> Workload:
    return Workload(
        f"csr-gather({row_length} of {column_count})",
        (IndexedAccess(base, csr_row_indices(row_length, column_count, seed)),),
    )


@register(
    WORKLOAD,
    "histogram",
    example={"count": 128, "buckets": 64},
    summary="Zipf-skewed histogram bucket scatter",
)
def _histogram(
    count: int, buckets: int, skew: float = 1.2, seed: int = 0, base: int = 0
) -> Workload:
    return Workload(
        f"histogram({count} into {buckets})",
        (IndexedAccess(base, histogram_indices(count, buckets, skew, seed)),),
    )


@register(
    WORKLOAD,
    "block-shuffle",
    example={"block": 8, "blocks": 16},
    summary="Dense blocks of indices in shuffled block order",
)
def _block_shuffle(block: int, blocks: int, seed: int = 0, base: int = 0) -> Workload:
    return Workload(
        f"block-shuffle({blocks} x {block})",
        (IndexedAccess(base, block_shuffle_indices(block, blocks, seed)),),
    )


@register(
    WORKLOAD,
    "matrix-rows",
    example={"rows": 8, "cols": 128},
    summary="Row accesses of a row-major matrix (stride 1)",
)
def _matrix_rows(rows: int, cols: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"matrix-rows({rows}x{cols})", matrix_row_accesses(rows, cols, base)
    )


@register(
    WORKLOAD,
    "matrix-columns",
    example={"rows": 128, "cols": 8},
    summary="Column accesses of a row-major matrix (stride = cols)",
)
def _matrix_columns(rows: int, cols: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"matrix-columns({rows}x{cols})",
        matrix_column_accesses(rows, cols, base),
    )


@register(
    WORKLOAD,
    "matrix-diagonal",
    example={"n": 128},
    summary="Main diagonal of an n x n matrix (stride n+1)",
)
def _matrix_diagonal(n: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"matrix-diagonal({n})", [matrix_diagonal_access(n, base)]
    )


@register(
    WORKLOAD,
    "matrix-antidiagonal",
    example={"n": 128},
    summary="Anti-diagonal of an n x n matrix (stride n-1)",
)
def _matrix_antidiagonal(n: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"matrix-antidiagonal({n})", [matrix_antidiagonal_access(n, base)]
    )


@register(
    WORKLOAD,
    "fft-stage",
    example={"n": 256, "stage": 3},
    summary="Operand loads of one radix-2 FFT butterfly stage",
)
def _fft_stage(n: int, stage: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"fft-stage({n}, stage {stage})",
        fft_butterfly_accesses(n, stage, base),
    )


@register(
    WORKLOAD,
    "transpose-blocks",
    example={"rows": 32, "cols": 32, "block": 8},
    summary="Column reads of each tile of a blocked transpose",
)
def _transpose_blocks(rows: int, cols: int, block: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"transpose-blocks({rows}x{cols}/{block})",
        transpose_block_accesses(rows, cols, block, base),
    )


@register(
    WORKLOAD,
    "stencil",
    example={"rows": 6, "cols": 66},
    summary="5-point stencil loads over a row-major grid",
)
def _stencil(rows: int, cols: int, base: int = 0) -> Workload:
    return _vector_workload(
        f"stencil({rows}x{cols})", stencil_accesses(rows, cols, base)
    )


# -- drives --------------------------------------------------------------

#: A drive kind's factory is its *mode descriptor* class, which the
#: facade interprets.  Keeping drives declarative (no captured machine
#: state) preserves the spec's process-boundary safety.


@register(
    DRIVE,
    "planner",
    example={"mode": "auto"},
    summary="AccessPlanner order + cycle-accurate memory simulator",
)
@dataclass(frozen=True)
class PlannerDrive:
    """Plan each access with the AccessPlanner, run the memory simulator."""

    mode: PlanMode = "auto"
    indexed_mode: IndexedMode = "scheduled"


@register(
    DRIVE,
    "figure6",
    example={},
    summary="Figure 6 register-level address-generation engine",
)
@dataclass(frozen=True)
class Figure6Drive:
    """Generate the request stream with the Figure 6 hardware engine."""


@register(
    DRIVE,
    "decoupled",
    example={"chaining": False},
    summary="Decoupled access/execute vector machine (Figure 1)",
)
@dataclass(frozen=True)
class DecoupledDrive:
    """Run VLOADs through the full decoupled access/execute machine.

    ``memory_streams`` caps the access unit's concurrent in-flight
    memory instructions; ``None`` tracks the memory's port count
    (``memory.ports`` in the spec), so the classic single-port design
    keeps the paper's serial per-access timing.
    """

    chaining: bool = False
    plan_mode: PlanMode = "auto"
    execute_startup: int = 4
    register_length: int | None = None
    memory_streams: int | None = None


# -- programs ------------------------------------------------------------

#: Register length a program scenario uses when the drive leaves
#: ``register_length`` unset (the paper's canonical L = 64 design).
DEFAULT_PROGRAM_REGISTER_LENGTH = 64


@dataclass(frozen=True)
class ScenarioProgram:
    """A whole vector program plus the data contract around it.

    ``inputs`` are ``(base, stride, values)`` vectors preloaded into the
    backing store before the run; ``expected`` are vectors the store
    must hold afterwards (empty for raw instruction sources, whose
    outputs the facade then cannot check numerically).
    """

    label: str
    program: Program
    inputs: tuple[MemoryInit, ...] = ()
    expected: tuple[MemoryInit, ...] = ()

    def __post_init__(self) -> None:
        if not len(self.program):
            raise ConfigurationError(
                f"program {self.label!r} has no instructions"
            )


def _check_length(n: int) -> int:
    if n < 1:
        raise ConfigurationError(f"program length n must be >= 1, got {n}")
    return n


def _check_stride(name: str, stride: int) -> int:
    if stride == 0:
        raise ConfigurationError(f"program stride {name!r} must be non-zero")
    return stride


def _auto_base(base: int | None, previous_base: int, stride: int, n: int) -> int:
    """Default one array's base just past the previous array's span, so
    the registered kernels never overlap unless the spec asks them to."""
    if base is None:
        return previous_base + abs(stride) * n
    return base


def _ramp(n: int, start: float = 0.0, step: float = 1.0) -> tuple[float, ...]:
    """Deterministic input data: a simple arithmetic ramp."""
    return tuple(start + step * i for i in range(n))


@register(
    PROGRAM,
    "instructions",
    example={
        "lines": [
            ".init base=0, stride=4, values=1;2;3;4",
            "vload v1, base=0, stride=4, length=4",
            "vscale v2, v1, scalar=2.0, length=4",
            "vstore v2, base=512, stride=1, length=4",
        ]
    },
    summary="Inline instruction list (one assembler statement per entry)",
)
def _instructions(lines: Sequence[str]) -> ScenarioProgram:
    program, inits = parse_source("\n".join(lines))
    return ScenarioProgram(
        label=f"instructions({len(program)} instructions)",
        program=program,
        inputs=inits,
    )


@register(
    PROGRAM,
    "asm",
    example={
        "text": (
            ".fill base=0, stride=4, count=64, value=1.5\n"
            "vload v1, base=0, stride=4\n"
            "vadd v2, v1, v1"
        )
    },
    summary="Assembler source text (directives .init/.fill allowed)",
)
def _asm(text: str) -> ScenarioProgram:
    program, inits = parse_source(text)
    return ScenarioProgram(
        label=f"asm({len(program)} instructions)",
        program=program,
        inputs=inits,
    )


@register(
    PROGRAM,
    "daxpy",
    example={"n": 96, "alpha": 2.0},
    summary="Strip-mined y = alpha*x + y (loads, scale, add, store)",
)
def _daxpy(
    n: int,
    alpha: float = 2.0,
    x_base: int = 0,
    x_stride: int = 4,
    y_base: int | None = None,
    y_stride: int = 4,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("x_stride", x_stride)
    _check_stride("y_stride", y_stride)
    y_base = _auto_base(y_base, x_base, x_stride, n)
    x = _ramp(n)
    y = _ramp(n, start=1.0, step=2.0)
    expected = tuple(alpha * a + b for a, b in zip(x, y))
    return ScenarioProgram(
        label=f"daxpy(n={n}, alpha={alpha})",
        program=daxpy_program(
            n, register_length, alpha, x_base, x_stride, y_base, y_stride
        ),
        inputs=((x_base, x_stride, x), (y_base, y_stride, y)),
        expected=((y_base, y_stride, expected),),
    )


@register(
    PROGRAM,
    "elementwise-product",
    example={"n": 96},
    summary="Strip-mined out = a * b (two loads, multiply, store)",
)
def _elementwise_product(
    n: int,
    a_base: int = 0,
    a_stride: int = 4,
    b_base: int | None = None,
    b_stride: int = 4,
    out_base: int | None = None,
    out_stride: int = 4,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    for name, stride in (
        ("a_stride", a_stride), ("b_stride", b_stride), ("out_stride", out_stride)
    ):
        _check_stride(name, stride)
    b_base = _auto_base(b_base, a_base, a_stride, n)
    out_base = _auto_base(out_base, b_base, b_stride, n)
    a = _ramp(n, start=1.0)
    b = _ramp(n, start=2.0, step=0.5)
    expected = tuple(left * right for left, right in zip(a, b))
    return ScenarioProgram(
        label=f"elementwise-product(n={n})",
        program=elementwise_product_program(
            n, register_length, a_base, a_stride, b_base, b_stride,
            out_base, out_stride,
        ),
        inputs=((a_base, a_stride, a), (b_base, b_stride, b)),
        expected=((out_base, out_stride, expected),),
    )


@register(
    PROGRAM,
    "saxpy-chain",
    example={"n": 96, "alpha": 3.0},
    summary="Strip-mined out = alpha*x — the minimal LOAD->OP->STORE chain",
)
def _saxpy_chain(
    n: int,
    alpha: float = 3.0,
    x_base: int = 0,
    x_stride: int = 4,
    out_base: int | None = None,
    out_stride: int = 4,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("x_stride", x_stride)
    _check_stride("out_stride", out_stride)
    out_base = _auto_base(out_base, x_base, x_stride, n)
    x = _ramp(n, start=1.0)
    expected = tuple(alpha * value for value in x)
    return ScenarioProgram(
        label=f"saxpy-chain(n={n}, alpha={alpha})",
        program=saxpy_chain_program(
            n, register_length, alpha, x_base, x_stride, out_base, out_stride
        ),
        inputs=((x_base, x_stride, x),),
        expected=((out_base, out_stride, expected),),
    )


@register(
    PROGRAM,
    "load-store-copy",
    example={"n": 96},
    summary="Strip-mined memory-to-memory copy (pure access pipeline)",
)
def _load_store_copy(
    n: int,
    src_base: int = 0,
    src_stride: int = 4,
    dst_base: int | None = None,
    dst_stride: int = 4,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("src_stride", src_stride)
    _check_stride("dst_stride", dst_stride)
    dst_base = _auto_base(dst_base, src_base, src_stride, n)
    values = _ramp(n, start=5.0)
    return ScenarioProgram(
        label=f"load-store-copy(n={n})",
        program=load_store_copy_program(
            n, register_length, src_base, src_stride, dst_base, dst_stride
        ),
        inputs=((src_base, src_stride, values),),
        expected=((dst_base, dst_stride, values),),
    )


@register(
    PROGRAM,
    "fft-butterfly",
    example={"n": 256, "stage": 3},
    summary="Strip-mined radix-2 butterflies of one in-place FFT stage",
)
def _fft_butterfly(
    n: int,
    stage: int = 0,
    base: int = 0,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    if stage < 0:
        raise ConfigurationError(f"stage must be >= 0, got {stage}")
    try:
        program = fft_butterfly_program(n, stage, register_length, base)
    except ProgramError as error:
        raise ConfigurationError(
            f"infeasible fft-butterfly(n={n}, stage={stage}): {error}"
        ) from None
    data = _ramp(n, start=1.0)
    half = 1 << stage
    out = list(data)
    for top in range(n):
        if (top // half) % 2 == 0:
            bottom = top + half
            out[top] = data[top] + data[bottom]
            out[bottom] = data[top] - data[bottom]
    return ScenarioProgram(
        label=f"fft-butterfly(n={n}, stage={stage})",
        program=program,
        inputs=((base, 1, data),),
        expected=((base, 1, tuple(out)),),
    )


def _shuffled_indices(n: int, seed: int) -> list[int]:
    """A deterministic permutation of ``range(n)`` (gather/scatter data)."""
    import random

    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


@register(
    PROGRAM,
    "vsum",
    example={"n": 96},
    summary="Strip-mined reduction out[0] = sum(x) (VSUM + accumulator)",
)
def _vsum(
    n: int,
    src_base: int = 0,
    src_stride: int = 4,
    out_base: int | None = None,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("src_stride", src_stride)
    out_base = _auto_base(out_base, src_base, src_stride, n)
    values = _ramp(n, start=1.0)
    return ScenarioProgram(
        label=f"vsum(n={n})",
        program=vsum_program(n, register_length, src_base, src_stride, out_base),
        inputs=((src_base, src_stride, values),),
        expected=((out_base, 1, (sum(values),)),),
    )


@register(
    PROGRAM,
    "gather",
    example={"n": 96},
    summary="Strip-mined indexed load out[i] = table[index[i]] (VGATHER)",
)
def _gather_program(
    n: int,
    table_size: int | None = None,
    seed: int = 0,
    index_base: int = 0,
    index_stride: int = 1,
    table_base: int | None = None,
    out_base: int | None = None,
    out_stride: int = 1,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("index_stride", index_stride)
    _check_stride("out_stride", out_stride)
    if table_size is None:
        table_size = n
    if table_size < n:
        raise ConfigurationError(
            f"program field 'table_size' must be >= n={n}, got {table_size}"
        )
    table_base = _auto_base(table_base, index_base, index_stride, n)
    out_base = _auto_base(out_base, table_base, 1, table_size)
    indices = _shuffled_indices(table_size, seed)[:n]
    table = _ramp(table_size, start=10.0)
    expected = tuple(table[index] for index in indices)
    return ScenarioProgram(
        label=f"gather(n={n}, table={table_size})",
        program=gather_program(
            n, register_length, table_base, index_base, index_stride,
            out_base, out_stride,
        ),
        inputs=(
            (index_base, index_stride, tuple(float(i) for i in indices)),
            (table_base, 1, table),
        ),
        expected=((out_base, out_stride, expected),),
    )


@register(
    PROGRAM,
    "scatter",
    example={"n": 96},
    summary="Strip-mined indexed store table[index[i]] = x[i] (VSCATTER)",
)
def _scatter_program(
    n: int,
    seed: int = 0,
    index_base: int = 0,
    index_stride: int = 1,
    src_base: int | None = None,
    src_stride: int = 1,
    table_base: int | None = None,
    register_length: int = DEFAULT_PROGRAM_REGISTER_LENGTH,
) -> ScenarioProgram:
    n = _check_length(n)
    _check_stride("index_stride", index_stride)
    _check_stride("src_stride", src_stride)
    src_base = _auto_base(src_base, index_base, index_stride, n)
    table_base = _auto_base(table_base, src_base, src_stride, n)
    # A permutation keeps the scatter write set unambiguous: every table
    # slot is written exactly once, whatever the delivery order.
    indices = _shuffled_indices(n, seed)
    values = _ramp(n, start=1.0, step=0.5)
    expected = [0.0] * n
    for position, index in enumerate(indices):
        expected[index] = values[position]
    return ScenarioProgram(
        label=f"scatter(n={n})",
        program=scatter_program(
            n, register_length, table_base, index_base, index_stride,
            src_base, src_stride,
        ),
        inputs=(
            (index_base, index_stride, tuple(float(i) for i in indices)),
            (src_base, src_stride, values),
        ),
        expected=((table_base, 1, tuple(expected)),),
    )
