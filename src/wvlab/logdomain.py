"""Natural-log-domain scalar helpers.

Magnitudes throughout the package are carried as ``log(value)`` floats with
``-inf`` encoding zero; near the convergence boundary the linear values exceed
1e6 in the exponent and would overflow ordinary floats.

``log_sum_exp`` sums one array, and ``series._Window`` the blocks of a
scan window (its block sums combined with ``math.fsum``, under the
quiet-block rule that ``series`` describes, which ``absorbs`` decides).
Both sum by the one kernel (``_sum_exp``): exactly rounded up to
``_FSUM_CUTOFF`` terms with an array kernel (``_exact_sum``) that gives the
bits ``math.fsum`` gives, and pairwise (``np.sum``) beyond it.  A window of
one block keeps the bits of ``log_sum_exp``; a split into several blocks
can move the last bit.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")


_FSUM_CUTOFF = 1 << 17
# mant + _SPLIT, less _SPLIT, rounds a mantissa in [0.5, 1) to a multiple
# of 2**-27: the ulp of 2**25 is 2**-27.
_SPLIT = 2.0 ** 25
# exponents combined per big-int step, and their weights, scaled by 2**53
_FOLD = 4
_FOLD_WEIGHTS = 2.0 ** (53 + np.arange(_FOLD))
# frexp exponents of values in [0, 1] lie in [-1073, 1]; bin e + _BIAS
_BIAS = 1074
# values split per step: the allocator reuses temporaries this small, while
# each fresh page of a large one costs a page fault
_PIECE = 1 << 13


def _exact_sum(x: np.ndarray) -> float:
    """The exactly rounded sum of at most ``_FSUM_CUTOFF`` values in [0, 1].

    Bit for bit what ``math.fsum`` returns.  ``np.frexp`` writes each value
    as a mantissa of 53 bits times a power of two.  Each mantissa is split
    into a 27-bit high part and a signed 26-bit low part, and each part is
    summed per exponent by ``np.bincount``, ``_PIECE`` values at a time.
    With at most 2**17 terms every such sum, and every partial sum on the
    way, needs at most 44 bits, so it is exact.  Each run of ``_FOLD``
    exponents, from the smallest present, is folded into one sum weighted
    by 1, 2, 4, 8, which needs at most 48 bits and so stays exact too.  The
    folded sums are combined as Python ints, one step per run, and rounded
    once by int true division, which rounds correctly, half to even.
    """
    his = np.zeros(_BIAS + 2)
    los = np.zeros(_BIAS + 2)
    for a in range(0, x.size, _PIECE):
        mant, exp = np.frexp(x[a:a + _PIECE])
        hi = mant + _SPLIT
        hi -= _SPLIT
        mant -= hi  # the low part, a multiple of 2**-53 in [-2**-28, 2**-28]
        exp += _BIAS
        his += np.bincount(exp, weights=hi, minlength=his.size)
        los += np.bincount(exp, weights=mant, minlength=los.size)
    present = np.flatnonzero(his)  # a nonzero value has a high part >= 0.5
    if present.size == 0:
        return 0.0
    low = int(present[0])
    total = 0
    for h, lo in zip(_folded(his[low:])[::-1].tolist(),
                     _folded(los[low:])[::-1].tolist()):
        total = (total << _FOLD) + int(h) + int(lo)
    return total / (1 << (53 + _BIAS - low))


def _folded(sums: np.ndarray) -> np.ndarray:
    """Entry ``k`` is ``sum_j 2**(53+j) * sums[_FOLD*k + j]``, an integer."""
    sums = np.concatenate((sums, np.zeros(-sums.size % _FOLD)))
    return sums.reshape(-1, _FOLD) @ _FOLD_WEIGHTS


def _sum_exp(t: np.ndarray, m: float, out: np.ndarray) -> float:
    """The sum of ``exp(t - m)``, formed in ``out[:t.size]``, which holds
    the values ``exp(t - m)`` on return: a caller may weight them further.

    Exactly rounded (``_exact_sum``, the bits of ``math.fsum``) up to
    ``_FSUM_CUTOFF`` terms and deterministic pairwise summation beyond it.
    """
    shifted = np.subtract(t, m, out=out[:t.size])
    np.exp(shifted, out=shifted)
    if t.size <= _FSUM_CUTOFF:
        return _exact_sum(shifted)
    return float(np.sum(shifted))


def absorbs(values, bound: float) -> bool:
    """Whether ``math.fsum`` of ``values`` keeps its bits when nonnegative
    values totalling at most ``bound`` join them.

    ``math.fsum`` rounds the exact sum correctly, and correct rounding is
    monotone: a total ``s`` in ``[0, bound]`` puts the sum's rounding
    between ``fsum(values)`` and ``fsum(values + [bound])``, so where those
    two agree, it is both.
    """
    return math.fsum([*values, bound]) == math.fsum(values)


def log_sum_exp(values) -> float:
    """log of the sum of exp(values) over a 1-d array.

    Summed by :func:`_sum_exp`: a pure function of the input array,
    independent of worker count.  A non-finite max (all values -inf, or a
    +inf value) is the result, and a NaN anywhere gives NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if not math.isfinite(m):
        return m
    return m + math.log(_sum_exp(arr, m, np.empty(arr.size)))

