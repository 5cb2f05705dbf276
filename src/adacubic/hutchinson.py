"""Stochastic estimation of the Hessian diagonal from Hessian-vector products."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np

BLOCK_BYTES = 1 << 16  # the most bytes of probes that rademacher_rows draws at once


def rademacher_probes(rng: np.random.Generator, S: int, d: int) -> np.ndarray:
    """S rows of d i.i.d. +-1 entries, drawn from ``rng`` in one call.

    PCG64 serves these bounded draws 32 bits at a time from its own buffer,
    so one (S, d) draw yields the same rows, and leaves ``rng`` in the same
    state, as S draws of d entries.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return rng.integers(0, 2, size=(S, d)).astype(float) * 2.0 - 1.0


def rademacher_rows(rng: np.random.Generator, d: int) -> Iterator[np.ndarray]:
    """Successive :func:`rademacher_probes` rows from ``rng``, drawn ahead in blocks
    of at most BLOCK_BYTES (or one row); draw nothing else from ``rng``."""
    rows = max(1, BLOCK_BYTES // (8 * max(d, 1)))  # the draw rejects d < 1
    while True:
        yield from rademacher_probes(rng, rows, d)


def hutchinson_diag(hvp: Callable[[np.ndarray], np.ndarray],
                    probes: Iterable[np.ndarray]) -> np.ndarray:
    """Average of H(v) * v over the Rademacher probe rows v of ``probes``.

    Unbiased for diag(H); exact for diagonal H at any number of probes since
    v*v == 1.  Accumulation is sequential over the rows, for bit-reproducibility.
    """
    acc, S = 0.0, 0
    for S, v in enumerate(probes, 1):
        hv = np.asarray(hvp(v), dtype=float)
        # hv.dot(hv) is finite iff every entry is, unless it overflows
        if not math.isfinite(hv.dot(hv)) and not np.isfinite(hv).all():
            raise FloatingPointError("non-finite Hessian-vector product")
        acc = acc + hv * v  # the first sum turns -0.0 into 0.0
    if S == 0:
        raise ValueError("hutchinson_diag needs at least one probe row")
    return acc if S == 1 else acc / S  # a / 1 == a
