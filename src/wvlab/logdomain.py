"""Natural-log-domain scalar helpers.

Magnitudes throughout the package are carried as ``log(value)`` floats with
``-inf`` encoding zero; near the convergence boundary the linear values exceed
1e6 in the exponent and would overflow ordinary floats.

``log_sum_exp`` sums exactly rounded up to ``_FSUM_CUTOFF`` terms with an
array kernel (``_exact_sum``) that gives the bits ``math.fsum`` gives, and
pairwise (``np.sum``) beyond it.
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


def _exact_sum(x: np.ndarray) -> float:
    """The exactly rounded sum of at most ``_FSUM_CUTOFF`` values in [0, 1].

    Bit for bit what ``math.fsum`` returns.  ``np.frexp`` writes each value
    as a mantissa of 53 bits times a power of two.  Each mantissa is split
    into a 27-bit high part and a signed 26-bit low part, and each part is
    summed per exponent by ``np.bincount``.  With at most 2**17 terms every
    such sum needs at most 44 bits, so it is exact.  Each run of ``_FOLD``
    exponents is folded into one sum weighted by 1, 2, 4, 8, which needs at
    most 48 bits and so stays exact too.  The folded sums are combined as
    Python ints, one step per run, and rounded once by int true division,
    which rounds correctly, half to even.
    """
    mant, exp = np.frexp(x)
    hi = mant + _SPLIT
    hi -= _SPLIT
    mant -= hi  # the low part, a multiple of 2**-53 in [-2**-28, 2**-28]
    emin = int(exp.min())
    exp -= emin
    his = _folded(np.bincount(exp, weights=hi))
    los = _folded(np.bincount(exp, weights=mant))
    total = 0
    for h, low in zip(his[::-1].tolist(), los[::-1].tolist()):
        total = (total << _FOLD) + int(h) + int(low)
    return total / (1 << (53 - emin))


def _folded(sums: np.ndarray) -> np.ndarray:
    """Entry ``k`` is ``sum_j 2**(53+j) * sums[_FOLD*k + j]``, an integer."""
    sums = np.concatenate((sums, np.zeros(-sums.size % _FOLD)))
    return sums.reshape(-1, _FOLD) @ _FOLD_WEIGHTS


def log_sum_exp(values) -> float:
    """log of the sum of exp(values) over a 1-d array.

    Accumulation is exactly rounded (``_exact_sum``, the bits of
    ``math.fsum``) up to a size cutoff and deterministic pairwise summation
    beyond it; either way the result is a pure function of the input array,
    independent of worker count.  A NaN anywhere gives NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(np.max(arr))
    if not math.isfinite(m):  # all -inf (zero), a +inf term, or a NaN
        return m
    shifted = arr - m
    np.exp(shifted, out=shifted)
    if arr.size <= _FSUM_CUTOFF:
        s = _exact_sum(shifted)
    else:
        s = float(np.sum(shifted))
    return m + math.log(s)

