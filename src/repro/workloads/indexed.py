"""Index-vector generators for gather/scatter workloads.

Companions to :mod:`repro.core.gather`: the index populations that real
kernels produce.

* :func:`bit_reversal_indices` — the FFT's final permutation.  A neat
  theoretical fact reproduced in the tests: bit reversal of a full
  power-of-two range is *balanced* across XOR-mapped modules, so the
  cooldown scheduler serves it conflict-free — an access that no
  constant stride can express.
* :func:`csr_row_indices` — column indices of one compressed-sparse-row
  matrix row (sorted, duplicate-free, random gaps).
* :func:`histogram_indices` — skewed (Zipf-like) bucket indices, the
  classic scatter hazard.
* :func:`block_shuffle_indices` — cache-blocked permutation (dense
  blocks in shuffled order).
"""

from __future__ import annotations

import random

from repro.errors import VectorSpecError


def bit_reversal_indices(bits: int) -> list[int]:
    """The bit-reversal permutation of ``range(2**bits)``.

    One pass: ``i``'s reversal is ``i >> 1``'s shifted down one place,
    with ``i``'s low bit moved to the top of the ``bits``-bit word.
    """
    if bits < 0:
        raise VectorSpecError(f"bits must be >= 0, got {bits}")
    out = [0] * (1 << bits)
    top = bits - 1
    for value in range(1, len(out)):
        out[value] = (out[value >> 1] >> 1) | ((value & 1) << top)
    return out


def csr_row_indices(
    row_length: int, column_count: int, seed: int = 0
) -> list[int]:
    """Sorted distinct column indices of one CSR matrix row."""
    if row_length < 1:
        raise VectorSpecError(f"row_length must be >= 1, got {row_length}")
    if column_count < row_length:
        raise VectorSpecError(
            f"cannot pick {row_length} distinct columns out of {column_count}"
        )
    rng = random.Random(seed)
    return sorted(rng.sample(range(column_count), row_length))


def histogram_indices(
    count: int, buckets: int, skew: float = 1.2, seed: int = 0
) -> list[int]:
    """Zipf-skewed bucket indices: few hot buckets, long cold tail."""
    if count < 1 or buckets < 1:
        raise VectorSpecError("count and buckets must be >= 1")
    if skew <= 0:
        raise VectorSpecError(f"skew must be > 0, got {skew}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(buckets)]
    return rng.choices(range(buckets), weights=weights, k=count)


def block_shuffle_indices(
    block: int, blocks: int, seed: int = 0
) -> list[int]:
    """Dense blocks of consecutive indices, in shuffled block order."""
    if block < 1 or blocks < 1:
        raise VectorSpecError("block and blocks must be >= 1")
    rng = random.Random(seed)
    order = list(range(blocks))
    rng.shuffle(order)
    out: list[int] = []
    for which in order:
        out.extend(range(which * block, which * block + block))
    return out
