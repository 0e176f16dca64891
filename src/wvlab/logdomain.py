"""Natural-log-domain scalar helpers.

Magnitudes throughout the package are carried as ``log(value)`` floats with
``-inf`` encoding zero; near the convergence boundary the linear values exceed
1e6 in the exponent and would overflow ordinary floats.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")


_FSUM_CUTOFF = 1 << 17


def log_sum_exp(values) -> float:
    """log of the sum of exp(values) over a 1-d array.

    Accumulation is exactly rounded (``math.fsum``) up to a size cutoff and
    deterministic pairwise summation beyond it; either way the result is a
    pure function of the input array, independent of worker count.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if m == LOG_ZERO:
        return LOG_ZERO
    if math.isinf(m):  # +inf: sum dominated by an infinite term
        return m
    shifted = arr - m
    np.exp(shifted, out=shifted)
    if arr.size <= _FSUM_CUTOFF:
        s = math.fsum(shifted)
    else:
        s = float(np.sum(shifted))
    return m + math.log(s)


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b))."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))
