"""Stochastic estimation of the Hessian diagonal from Hessian-vector products."""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

BLOCK_BYTES = 1 << 16  # the most bytes of probes that rademacher_blocks draws at once


def rademacher_probes(rng: np.random.Generator, S: int, d: int) -> np.ndarray:
    """S rows of d i.i.d. +-1 entries, drawn from ``rng`` in one call.

    PCG64 serves these bounded draws 32 bits at a time from its own buffer,
    so one (S, d) draw yields the same rows, and leaves ``rng`` in the same
    state, as S draws of d entries.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return rng.integers(0, 2, size=(S, d)).astype(float) * 2.0 - 1.0


def rademacher_blocks(rng: np.random.Generator, S: int, d: int) -> Iterator[np.ndarray]:
    """Successive (S, d) blocks of :func:`rademacher_probes` rows from ``rng``,
    drawn ahead in draws of at most BLOCK_BYTES (or one block); draw nothing
    else from ``rng``.  Each block holds the rows that one draw of S rows
    would give."""
    if S < 1:
        raise ValueError("S must be >= 1")
    blocks = max(1, BLOCK_BYTES // (8 * S * max(d, 1)))  # the draw rejects d < 1
    while True:
        yield from rademacher_probes(rng, blocks * S, d).reshape(blocks, S, d)


def hutchinson_diag(hvp: Callable[[np.ndarray], np.ndarray], V: np.ndarray) -> np.ndarray:
    """Average of H(v) * v over the Rademacher probe rows v of the (S, d) block V.

    V must be 2-D, and one ``hvp(V)`` call must return the S products as the
    rows of an (S, d) array; any other shape of either is a ValueError.
    Unbiased for diag(H); exact for diagonal H at any number of probes since
    v*v == 1.  The rows are summed in order from 0.0, for bit-reproducibility.
    """
    shape = np.shape(V)
    if len(shape) != 2:
        raise ValueError(f"need a 2-D (S, d) probe block, got shape {shape}")
    S = shape[0]
    if S == 0:
        raise ValueError("hutchinson_diag needs at least one probe row")
    hv = np.asarray(hvp(V), dtype=float)
    if hv.shape != shape:
        raise ValueError(f"hvp returned shape {hv.shape} for a probe block of "
                         f"shape {shape}")
    # the sum of squares is finite iff every entry is, unless it overflows
    if not math.isfinite(np.vdot(hv, hv)) and not np.isfinite(hv).all():
        raise FloatingPointError("non-finite Hessian-vector product")
    p = hv * V
    total = 0.0 + p[0]  # turns -0.0 into 0.0
    for i in range(1, S):
        total += p[i]
    return total / S if S > 1 else total
