"""Natural-log-domain scalar helpers.

Magnitudes throughout the package are carried as ``log(value)`` floats with
``-inf`` encoding zero; near the convergence boundary the linear values exceed
1e6 in the exponent and would overflow ordinary floats.

``log_sum_exp`` sums one array, and ``series._Window`` the blocks of a
scan window (its block sums combined with ``math.fsum``, under the
quiet-block rule that ``series`` describes, which ``absorbs`` decides).
Both sum by the one kernel (``_sum_exp``): exactly rounded up to
``_FSUM_CUTOFF`` terms, and pairwise (``np.sum``) beyond it.  The exact
sums come from an array kernel (``_exact_sum``) that gives the bits
``math.fsum`` gives: error-free extraction splits the values into a part
whose sum ``np.sum`` forms exactly and residuals whose sum it forms within
a known bound, and a certificate decides when that fixes the rounding;
where it does not, further levels of extraction do.  It holds one array of
``_PIECE`` values, whatever the input's size.  A window of one block keeps
the bits of ``log_sum_exp``; a split into several blocks can move the last
bit.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")


_FSUM_CUTOFF = 1 << 17
# Level j of _exact_sum rounds to multiples of 2**(-_LEVEL_BITS * j) by
# adding and subtracting 1.5 * 2**(52 - _LEVEL_BITS * j), whose ulp that is;
# from the level whose ulp reaches the least subnormal, 2**-1074, on, the
# rounding is exact and every residual is 0.
_LEVEL_BITS = 35
_LAST_LEVEL = -(-1074 // _LEVEL_BITS)
# _exact_sum's scratch: a piece of level 1, or two half pieces of the
# levels after it; the allocator reuses temporaries this small, while each
# fresh page of a large one costs a page fault
_PIECE = 1 << 14


def _exact_sum(x: np.ndarray) -> float:
    """The exactly rounded sum of at most ``_FSUM_CUTOFF`` values in [0, 1].

    Bit for bit what ``math.fsum`` returns, by the error-free extraction of
    Rump, Ogita and Oishi (2008).  Level ``j`` rounds each residual ``r``
    (at first the value itself) to ``c``, a multiple of ``2**-35j``, as
    ``(r + s) - s`` with ``s = 1.5 * 2**(52 - 35j)``; ``c`` and the new
    residual ``r - c`` are exact, and ``|r - c| <= 2**-(35j+1)``.  Level 1
    gives multiples of ``2**-35`` up to 1, later levels multiples of
    ``2**-35j`` up to ``2**-(35j-34)`` in size.  So with at most 2**17
    terms, each level's sum ``P_j``, and every partial sum on the way, is
    a multiple of ``2**-35j`` at most ``2**52`` times it: ``np.sum`` forms
    it exactly in any order, a piece at a time.  ``math.fsum`` rounds
    correctly, and correct rounding is monotone, so where the sum lies
    within ``b`` of a known ``P`` and ``fsum(P + [-b])`` and ``fsum(P +
    [b])`` agree, that is the sum's rounding.

    The first certificate takes level 1 and sums its residuals, ``n``
    values of at most ``2**-36``, by ``np.sum`` to ``q``: in any order
    within ``(n - 1) u n 2**-36`` of their sum (``u = 2**-53``), which ``b
    = n**2 * 2**-88`` bounds.  That is five passes over each piece of
    ``_PIECE`` values, and it decides all but sums within ``b`` of a
    rounding boundary.  Those take the levels from 3 on, one more at a
    time, each pass recomputing the residuals, two half pieces at a time,
    until ``b = n * 2**-(35L+1)`` after ``L`` levels is small enough or the
    last level leaves every residual 0.
    """
    n = x.size
    scratch = np.empty(min(2 * n, _PIECE))
    s = math.ldexp(1.5, 52 - _LEVEL_BITS)
    p = q = 0.0
    for a in range(0, n, _PIECE):
        r = x[a:a + _PIECE]
        c = scratch[:r.size]
        np.add(r, s, out=c)
        c -= s
        p += float(np.sum(c))
        np.subtract(r, c, out=c)
        q += float(np.sum(c))
    b = math.ldexp(n * n, -88)
    low = math.fsum([p, q, -b])
    if low == math.fsum([p, q, b]):
        return low
    levels, half = 3, _PIECE // 2
    while True:
        sums = [0.0] * levels
        for a in range(0, n, half):
            r = x[a:a + half]
            c, rest = scratch[:r.size], scratch[r.size:2 * r.size]
            for j in range(levels):
                s = math.ldexp(1.5, 52 - _LEVEL_BITS * (j + 1))
                np.add(r, s, out=c)
                c -= s
                sums[j] += float(np.sum(c))
                if j + 1 < levels:
                    r = np.subtract(r, c, out=rest)
        if levels == _LAST_LEVEL:
            return math.fsum(sums)
        b = math.ldexp(n, -_LEVEL_BITS * levels - 1)
        low = math.fsum([*sums, -b])
        if low == math.fsum([*sums, b]):
            return low
        levels += 1


def _sum_exp(t: np.ndarray, m: float, out: np.ndarray) -> float:
    """The sum of ``exp(t - m)``, formed in ``out[:t.size]``, which holds
    the values ``exp(t - m)`` on return: a caller may weight them further.
    ``out`` may be ``t`` itself, whose values are then overwritten.

    ``m`` is at least every ``t``, so the values lie in [0, 1], as
    :func:`_exact_sum` needs: exactly rounded (the bits of ``math.fsum``)
    up to ``_FSUM_CUTOFF`` terms, in ``out`` and the kernel's scratch of
    ``_PIECE`` values, and deterministic pairwise summation beyond it.
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

