"""Stochastic estimation of the Hessian diagonal from Hessian-vector products."""

from __future__ import annotations

from itertools import product
from typing import Callable

import numpy as np


def _rademacher_probes(rng: np.random.Generator, S: int, d: int) -> np.ndarray:
    """S rows of d i.i.d. +-1 entries, drawn from ``rng`` in one call.

    PCG64 serves these bounded draws 32 bits at a time from its own buffer,
    so one (S, d) draw yields the same rows, and leaves ``rng`` in the same
    state, as S draws of d entries.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return rng.integers(0, 2, size=(S, d)).astype(float) * 2.0 - 1.0


def hutchinson_diag(hvp: Callable[[np.ndarray], np.ndarray], d: int, S: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Average of H(v) * v over S Rademacher probes.

    Unbiased for diag(H); exact for diagonal H at any S since v*v == 1.
    Accumulation is sequential in s for bit-reproducibility.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    acc = np.zeros(d)
    for v in _rademacher_probes(rng, S, d):
        hv = np.asarray(hvp(v), dtype=float)
        if not np.isfinite(hv).all():
            raise FloatingPointError("non-finite Hessian-vector product")
        acc += hv * v
    return acc / S


def exhaustive_diag(hvp: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Average H(v) * v over all 2^d sign vectors (test utility, d <= 12).

    Turns the unbiasedness of the estimator into a deterministic identity:
    the off-diagonal cross terms cancel exactly.
    """
    if d > 12:
        raise ValueError("exhaustive enumeration limited to d <= 12")
    acc = np.zeros(d)
    for signs in product((-1.0, 1.0), repeat=d):
        v = np.array(signs)
        acc += np.asarray(hvp(v), dtype=float) * v
    return acc / 2 ** d
