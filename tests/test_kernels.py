"""The array kernels against the scalar loops they replace.

* ``logdomain._exact_sum`` must give the bits of ``math.fsum``.
* ``families._KovariIntSource`` must give the same bits however its prefix
  is asked for, at block and batch edges and at the stops its earlier form
  was pinned at.  Its values are held to 4 ulps of a 40-digit ``mpmath``
  k-sum out to n = 1,493,063, and to the alternating recurrence replayed in
  ``mpmath``, the convolution and the closed form ``log M``.
* ``families._ScaledExpSource`` runs a blocked convolution with FFT
  history products, so it is held to the original negative-stride loop and
  to the plain ``_exp_step`` loop within a relative 1e-13, to the plain
  loop's bits when no block is kept, and to the same bits however its
  prefix is asked for; each FFT product is held to its error bound against
  exact products.
* Every recurrence source computes exactly the prefix it is asked for, and
  a formula source exactly the indices asked for, holding none of them.
"""

import fractions
import functools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from wvlab import RadialGrid, evaluate_grid, family, log_max_term, \
    log_positive_value, optimality_check
from wvlab import families as families_mod
from wvlab import series as series_mod
from wvlab.errors import TruncationError, ValidationError
from wvlab.families import _KOVARI_BATCH, _KOVARI_BLOCK, \
    _KOVARI_MAX_ORDER, _RESCALE_SHIFT, _RESCALE_THRESHOLD, \
    _KovariIntSource, _ScaledExpSource, binomial_series
from wvlab.logdomain import _FSUM_CUTOFF, _exact_sum, log_sum_exp
from wvlab.series import TAIL_RUN, VectorizedSource, truncation_horizon

LOG_ZERO = -math.inf


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# ---------------------------------------------------------------------------
# The exactly rounded sum.


@st.composite
def unit_arrays(draw):
    """Arrays of values in [0, 1]: random 53-bit mantissas at exponents from
    2**0 down to the subnormals, zeros, and often an exact 1."""
    size = draw(st.integers(1, _FSUM_CUTOFF))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lowest = draw(st.integers(-1074, 0))  # exponent of the smallest ulp
    mant = rng.integers(1 << 52, 1 << 53, size, dtype=np.int64)
    exp = rng.integers(lowest, 1, size)
    # mant * 2**(exp - 53) lies in [2**(exp-1), 2**exp); ldexp rounds the
    # values that fall in the subnormal range
    x = np.ldexp(mant.astype(float), exp - 53)
    x[rng.random(size) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    if draw(st.booleans()):
        x[rng.integers(size)] = 1.0
    return x


@settings(max_examples=60, deadline=None)
@given(unit_arrays())
def test_exact_sum_is_fsum(x):
    assert bits(_exact_sum(x)) == bits(math.fsum(x))


@st.composite
def tie_arrays(draw):
    """Sums that fall exactly halfway between two floats, or just above or
    below halfway.

    ``ones`` copies of 1.0 sum to a float in [2**j, 2**(j+1)), whose ulp is
    2**(j-52); an odd count of 2**(j-53) puts the total on a half-ulp tie.
    """
    ones = draw(st.integers(1, 4096))
    j = ones.bit_length() - 1
    halves = 2 * draw(st.integers(0, 200)) + 1
    nudge = draw(st.sampled_from(["tie", "above", "below"]))
    parts = [1.0] * ones + [2.0 ** (j - 53)] * halves
    if nudge == "above":
        parts.append(5e-324)
    elif nudge == "below":  # split one half-ulp part into two a bit short
        quarter = 2.0 ** (j - 54)
        parts[-1:] = [quarter, float(np.nextafter(quarter, 0.0))]
    parts += [0.0] * draw(st.integers(0, 100))
    order = np.random.default_rng(draw(st.integers(0, 1000))).permutation
    return np.array(parts)[order(len(parts))]


@settings(max_examples=200, deadline=None)
@given(tie_arrays())
def test_exact_sum_rounds_ties_like_fsum(x):
    assert bits(_exact_sum(x)) == bits(math.fsum(x))


@pytest.mark.parametrize("x", [
    [1.0],
    [0.0],
    [1.0, 0.0],
    [5e-324],
    [5e-324] * 3,
    [1.0, 2.0 ** -53],                # tie, rounds down to even
    [1.0, 2.0 ** -52, 2.0 ** -53],    # tie, rounds up to even
    [1.0, 2.0 ** -53, 5e-324],        # just above the tie
    [1.0] + [2.0 ** -1074] * 1000,
    [1.0] * _FSUM_CUTOFF,
    [1.0 - 2.0 ** -53] * _FSUM_CUTOFF,
    # 601 terms over about 1075 binades, from 1 down to 5e-324
    np.exp2(-np.linspace(0.0, 1074.0, 601)),
    # subnormals only
    np.ldexp(np.random.default_rng(0).integers(1, 2 ** 52, 601)
             .astype(float), -1074),
])
def test_exact_sum_edge_cases(x):
    x = np.array(x)
    assert bits(_exact_sum(x)) == bits(math.fsum(x))


def hidden_tie():
    """``1 + 2**-53``, a tie, with ``2**17 - 2`` values of ``2**-100``
    between its parts: two levels round them all to 0."""
    x = np.full(_FSUM_CUTOFF, 2.0 ** -100)
    x[0], x[-1] = 1.0, 2.0 ** -53
    return x


# Sums within the two-level bound of a tie: each needs a third level or
# more, and each is rounded the way math.fsum rounds it.
NEAR_TIES = pytest.mark.parametrize("x", [
    [1.0, 2.0 ** -53, 2.0 ** -120],   # just above the tie, at level 4
    [1.0, 2.0 ** -53 - 2.0 ** -105],  # just below the tie, at level 3
    hidden_tie(),                     # above the tie by 2**-83
], ids=["above", "below", "hidden"])


@NEAR_TIES
def test_exact_sum_of_near_ties_past_two_levels(x):
    x = np.array(x)
    assert bits(_exact_sum(x)) == bits(math.fsum(x))


def worst_residuals(n, sign):
    """``n`` values in [0, 1], each a multiple of ``2**-35`` moved by a
    few ``2**-53`` less than ``2**-36`` towards ``sign`` (exact, and short
    of the half-way tie): residuals of the first level as large as they
    come, all of one sign, so their sum by ``np.sum`` errs the most."""
    rng = np.random.default_rng(n)
    c = np.ldexp(rng.integers(1, 2 ** 35 - 1, n).astype(float), -35)
    off = 2.0 ** -36 - np.ldexp(rng.integers(1, 1024, n).astype(float), -53)
    return c + sign * off


def fsum_calls(x, monkeypatch):
    """The ``math.fsum`` calls that ``_exact_sum(x)`` makes, 2 where its
    first certificate decides; its result must have fsum's bits."""
    want, fsum, calls = math.fsum(x), math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda v: calls.append(v) or fsum(v))
    got = _exact_sum(x)
    monkeypatch.undo()
    assert bits(got) == bits(want)
    return len(calls)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [_FSUM_CUTOFF, _FSUM_CUTOFF - 1])
def test_exact_sum_of_the_largest_residuals(n, sign, monkeypatch):
    """The first certificate's bound ``n**2 * 2**-88`` holds where the
    residuals are largest, at the most values it is given."""
    assert fsum_calls(worst_residuals(n, sign), monkeypatch) == 2


@pytest.mark.parametrize("seed", range(3))
def test_random_sums_decide_at_the_first_certificate(seed, monkeypatch):
    x = np.random.default_rng(seed).random(_FSUM_CUTOFF)
    assert fsum_calls(x, monkeypatch) == 2


@NEAR_TIES
def test_near_ties_fall_back_to_the_levels(x, monkeypatch):
    assert fsum_calls(np.array(x), monkeypatch) > 2


@pytest.mark.parametrize("x", [
    np.random.default_rng(0).random(_FSUM_CUTOFF),
    hidden_tie(),
], ids=["two_levels", "hidden_tie"])
def test_exact_sum_holds_a_few_pieces(x):
    """Scratch of at most 196,608 bytes (24,576 values), however many
    levels a sum needs: no array or list of all the values.  The bound is
    fixed, so a larger ``_PIECE`` cannot loosen it."""
    tracemalloc.start()
    try:
        got = _exact_sum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(got) == bits(math.fsum(x))
    assert peak < 196_608


def fsum_log_sum_exp(values):
    """``log_sum_exp`` with the ``math.fsum`` accumulation it used to have."""
    arr = np.asarray(values, dtype=float)
    m = float(np.max(arr))
    return m + math.log(math.fsum(np.exp(arr - m)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20_000), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 40.0, 800.0]))
def test_log_sum_exp_keeps_the_fsum_bits(size, seed, spread):
    rng = np.random.default_rng(seed)
    t = 1e3 - spread * rng.random(size)
    t[rng.random(size) < 0.1] = LOG_ZERO
    t[rng.integers(size)] = 1e3
    assert bits(log_sum_exp(t)) == bits(fsum_log_sum_exp(t))


@pytest.mark.parametrize("values", [
    [math.nan],
    [0.0, math.nan],
    [LOG_ZERO, math.nan],
    [math.inf, math.nan],
    [1.0] * 100 + [math.nan],
])
def test_log_sum_exp_nan_in_nan_out(values):
    assert math.isnan(log_sum_exp(values))


# ---------------------------------------------------------------------------
# kovari at an integer rho: the nonnegative recurrence, run in blocks.

STOP_RHOS = [1, 2, _KOVARI_MAX_ORDER]
LONG = 200_001


def block_and_batch_stops():
    """Stops around block edges and batch edges: a stop of k*L + 1 ends
    exactly at the last value of block k - 1."""
    size, batch = _KOVARI_BLOCK, _KOVARI_BATCH
    return sorted({k * size + d
                   for k in (1, 2, 3, batch - 1, batch, batch + 1, 2 * batch,
                             3 * batch)
                   for d in (-1, 0, 1, 2)})


# the stops the recurrence's earlier form was pinned at: its chunk edges
# (65536 values) and the growth of a doubling buffer
OLD_STOPS = [[65_535, 65_536, 65_537, 65_538, 131_073, 196_608],
             [300, 5000, 60_000, 70_000, 200_000],
             [1, 2, 3, 257, 513, 1025]]


@functools.cache
def kovari_int_prefix(rho):
    """The first ``LONG`` values of ``kovari(rho)`` from one call."""
    return _KovariIntSource(rho).extend_to(LONG).copy()


@pytest.mark.parametrize("rho", STOP_RHOS)
def test_kovari_int_one_call_per_stop_matches_one_long_call(rho):
    want = kovari_int_prefix(rho)
    for stop in block_and_batch_stops() + OLD_STOPS[0] + OLD_STOPS[1]:
        got = _KovariIntSource(rho).extend_to(stop)
        assert got.size == stop
        assert np.array_equal(bits(got), bits(want[:stop])), stop


@pytest.mark.parametrize("stops", ["block_and_batch_edges", *OLD_STOPS],
                         ids=["edges", "old_chunks", "old_steps", "small"])
@pytest.mark.parametrize("rho", STOP_RHOS)
def test_kovari_int_extending_in_steps_matches_one_long_call(rho, stops):
    if stops == "block_and_batch_edges":
        stops = block_and_batch_stops() + [LONG]
    want = kovari_int_prefix(rho)
    source = _KovariIntSource(rho)
    for stop in stops:
        got = source.extend_to(stop)
        assert got.size == stop
        assert np.array_equal(bits(got), bits(want[:stop])), stop


def test_kovari_stitch_sums_do_not_depend_on_the_builtin_sum(monkeypatch):
    """The stitch adds each block state's products left to right, as the
    builtin ``sum`` does up to Python 3.11: one that compensates, as it
    does from 3.12 on, here ``math.fsum``, leaves every bit of kovari(3)."""
    stop = 2 * _KOVARI_BLOCK * _KOVARI_BATCH + 2
    want = kovari_int_prefix(3)[:stop]
    monkeypatch.setattr(families_mod, "sum", math.fsum, raising=False)
    got = family("kovari", rho=3).log_coeffs(stop)
    assert np.array_equal(bits(got), bits(want))


def test_kovari1_family_uses_the_recurrence():
    got = family("kovari", rho=1).log_coeffs(100_000)
    assert np.array_equal(bits(got), bits(kovari_int_prefix(1)[:100_000]))


def test_kovari_unit_start_solutions_stay_finite_at_the_top_order(
        monkeypatch):
    """They grow fastest in the first block; at rho = 8 they stay far from
    overflow there, and a block four times as long is refused rather than
    let an inf through."""
    a, s = _KovariIntSource(_KOVARI_MAX_ORDER)._unit_starts(0, 1)
    assert np.isfinite(a).all() and np.isfinite(s).all()
    assert s.max() < 1e200
    monkeypatch.setattr(families_mod, "_KOVARI_BLOCK", 4 * _KOVARI_BLOCK)
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        _KovariIntSource(_KOVARI_MAX_ORDER)._unit_starts(0, 1)


def test_kovari_int_fills_whole_batches_over_the_optimality_grid(
        monkeypatch):
    """``optimality`` on kovari(1) out to gap 1e-3 (the benchmark's seed-0
    grid) grows the prefix in 71 fills; each batch stitches all its blocks
    and serves the next fills, so the 1.49M-term prefix, inside the cache,
    costs one ``_unit_starts`` call per ``_KOVARI_BATCH`` blocks, not one
    or more per fill: each batch is computed once, in order."""
    calls = []
    unit_starts = _KovariIntSource._unit_starts
    monkeypatch.setattr(_KovariIntSource, "_unit_starts", lambda self, b0, b1:
                        calls.append((b0, b1)) or unit_starts(self, b0, b1))
    series = family("kovari", rho=1)
    q = (1e-3 / 0.1) ** (1 / 59)
    optimality_check(series, RadialGrid.geometric_in_gap(0.9, q, 60))
    size = series._source._size
    assert 1_400_000 < size < families_mod._CACHE_TERMS
    count = math.ceil((size - 1) / (_KOVARI_BLOCK * _KOVARI_BATCH))
    assert calls == [(b0, b0 + _KOVARI_BATCH)
                     for b0 in range(0, count * _KOVARI_BATCH, _KOVARI_BATCH)]


# ---------------------------------------------------------------------------
# kovari at an integer rho past its cache: chunks dropped and computed again
# from the batch checkpoints.

SMALL_CACHE = 2 ** 18  # four chunks
PAST_CACHE = 800_001


@functools.cache
def kovari_int_kept_prefix(rho):
    """The first ``PAST_CACHE`` values of ``kovari(rho)`` from one call,
    every chunk kept."""
    return _KovariIntSource(rho).extend_to(PAST_CACHE).copy()


@pytest.mark.parametrize("rho", [1, 2, 3, _KOVARI_MAX_ORDER])
def test_kovari_int_reads_past_the_cache_match_one_call(rho, monkeypatch):
    """Under a cache of four chunks, reads that cross its edge, go back
    before it, jump ahead and come back to the chunks dropped on the way
    give the bits of one fill that keeps every chunk; the source keeps
    the cache and two chunks past it."""
    want = kovari_int_kept_prefix(rho)
    monkeypatch.setattr(families_mod, "_CACHE_TERMS", SMALL_CACHE)
    source, chunk = _KovariIntSource(rho), series_mod._FILL_TERMS
    for lo, hi in [(0, 10), (SMALL_CACHE - 5, SMALL_CACHE + 5), (100, 200),
                   (PAST_CACHE - 10, PAST_CACHE),
                   (SMALL_CACHE, SMALL_CACHE + 9),
                   (SMALL_CACHE + 3 * chunk - 1, SMALL_CACHE + 3 * chunk + 1),
                   (SMALL_CACHE - chunk, SMALL_CACHE + 2 * chunk),
                   (5, 2 * chunk), (PAST_CACHE - 3 * chunk, PAST_CACHE - 1)]:
        got = source.block(lo, hi)
        assert np.array_equal(bits(got), bits(want[lo:hi])), (lo, hi)
        assert sum(c is not None for c in source._chunks) <= \
            SMALL_CACHE // chunk + 2
    assert np.array_equal(bits(source.extend_to(0)), bits(want))


def traced_peak(fn):
    """The ``tracemalloc`` peak of ``fn()`` above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cache", [SMALL_CACHE, None],
                         ids=["small_cache", "cache"])
def test_a_streamed_fill_holds_its_chunks_and_one_batch(cache, monkeypatch):
    """A fill of 2M kovari(1) values writes each batch into the chunks as
    it comes, so its traced peak is the chunks it keeps, one more chunk,
    and one batch with the work of stitching it (which the last batch
    stitched past the cache stays as).  Handing the whole fill over at
    once held it two or three times."""
    if cache is not None:
        monkeypatch.setattr(families_mod, "_CACHE_TERMS", cache)
    chunk = series_mod._FILL_TERMS * 8
    batch = _KovariIntSource(1)
    batch.block(0, 1)
    stitch = traced_peak(lambda: batch._stitch(0, _KOVARI_BATCH,
                                               *batch._starts[0]))
    source, stop = _KovariIntSource(1), 2_000_000
    peak = traced_peak(lambda: source.block(stop - 1, stop))
    kept = sum(c is not None for c in source._chunks)
    every = -(-source._end // series_mod._FILL_TERMS)
    assert kept == (every if cache is None
                    else SMALL_CACHE // series_mod._FILL_TERMS + 2)
    assert peak < kept * chunk + chunk + stitch + _KOVARI_BLOCK * \
        _KOVARI_BATCH * 8


def test_kovari_scan_to_the_cap_holds_the_cache_and_a_few_batches(
        monkeypatch):
    """kovari(1) at gap 1e-4 has no horizon below a cap of 3M terms: the
    scan slides to the cap and raises the error of a source that keeps
    every chunk, while holding the small cache, the scan buffers and a few
    batches, where keeping every chunk holds 24 MB."""
    cap = 3_000_000
    monkeypatch.setattr(series_mod, "HARD_CAP", cap)
    monkeypatch.setattr(series_mod._PrefixSource, "_cap", cap)

    def scan():
        with pytest.raises(TruncationError) as err:
            log_max_term(family("kovari", rho=1), 1 - 1e-4)
        return err.value

    kept = scan()
    assert kept.horizon == cap and str(kept) == (
        "no certified horizon for 'kovari(1)' at log r=-0.000100005 "
        "within 3000000 terms")
    monkeypatch.setattr(families_mod, "_CACHE_TERMS", SMALL_CACHE)
    errors = []
    peak = traced_peak(lambda: errors.append(scan()))
    assert str(errors[0]) == str(kept) and errors[0].horizon == cap
    assert peak < 8 * (SMALL_CACHE + 2 * series_mod._buffer_size()
                       + 8 * _KOVARI_BLOCK * _KOVARI_BATCH)


def mpmath_kovari_ksum_log(rho, n, dps=40):
    """log a_n of exp((1-z)^-rho) for n >= 1 and an integer rho from
    a_n = sum_{k>=1} C(n + rho k - 1, n) / k!, whose terms are positive.

    Each term is the one before it times an exact ratio of integers; the
    terms rise to a peak and then fall ever faster, so the sum stops once
    they fall and the next is below 10^-(dps+5) of the sum."""
    import mpmath

    with mpmath.workdps(dps):
        term = total = mpmath.mpf(math.comb(n + rho - 1, n))
        eps = mpmath.mpf(10) ** -(dps + 5)
        k = 1
        while True:
            m = n + rho * k - 1  # C(m, n) -> C(m + rho, n), k! -> (k+1)!
            num = math.prod(range(m + 1, m + rho + 1))
            den = math.prod(range(m + 1 - n, m + rho + 1 - n)) * (k + 1)
            term = term * num / den
            total += term
            k += 1
            if num < den and term < eps * total:
                return mpmath.log(total)


KSUM_NS = {
    1: [1, 2, 3, 255, 256, 257, 1000, 65_536, 100_000, 400_000, 1_000_000,
        1_335_738, 1_493_063],
    2: [1, 2, 256, 257, 5000, 100_000, 400_000],
    3: [1, 2, 256, 257, 5000, 100_000, 400_000],
    _KOVARI_MAX_ORDER: [1, 2, 256, 257, 5000, 100_000, 400_000],
}


@pytest.mark.parametrize("rho", sorted(KSUM_NS))
def test_kovari_int_matches_the_mpmath_k_sum(rho):
    """Within 4 ulps of log a_n out to the optimality workload's reach
    (n = 1,493,063 for kovari(1)) and to n = 4e5 at rho = 2, 3 and 8: the
    recurrence subtracts nothing, so its relative error stays near one
    rounding however far it runs."""
    import mpmath

    ns = KSUM_NS[rho]
    got = _KovariIntSource(rho).extend_to(ns[-1] + 1)
    for n in ns:
        want = mpmath_kovari_ksum_log(rho, n)
        err = float(abs(mpmath.mpf(float(got[n])) - want))
        assert err <= 4 * np.spacing(abs(float(want))), (n, err)


# ---------------------------------------------------------------------------
# kovari at integer rho against the alternating recurrence and the
# convolution.

INT_RHOS = [2, 3, _KOVARI_MAX_ORDER]
N_ORACLE = 20_000
ULP = 2.0 ** -53


def ulp_budget(rho, n):
    """An error allowance at a_n of 2^(rho+1) ulps per step.

    It is what the alternating form of the recurrence, (1-z)^(rho+1) f' =
    rho f, could lose: its terms add up to about 2^(rho+1) = sum_j
    C(rho+1, j) times the new value.  The nonnegative recurrence keeps far
    inside it (the k-sum test above holds it to 4 ulps of log a_n).
    """
    return 2.0 ** (rho + 1) * np.maximum(n, 1) * ULP


def mpmath_kovari_logs(rho, count, dps=40):
    """log a_n by the alternating recurrence in mpmath at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        terms = [((-1) ** (j + 1) * math.comb(rho + 1, j), j)
                 for j in range(2, rho + 2)]
        a = [mpmath.e]
        for n in range(count - 1):
            s = (rho + (rho + 1) * n) * a[n]
            for c, j in terms:
                if n + 1 - j >= 0:
                    s += c * (n + 1 - j) * a[n + 1 - j]
            a.append(s / (n + 1))
        return np.array([float(mpmath.log(v)) for v in a])


@pytest.mark.parametrize("rho", INT_RHOS)
def test_kovari_int_recurrence_matches_mpmath(rho):
    want = mpmath_kovari_logs(rho, N_ORACLE)
    got = _KovariIntSource(rho).extend_to(N_ORACLE)[:N_ORACLE]
    n = np.arange(N_ORACLE)
    assert np.all(np.abs(got - want) <= ulp_budget(rho, n))


@pytest.mark.parametrize("rho", INT_RHOS)
def test_kovari_int_recurrence_matches_the_convolution(rho):
    """The convolution is subtraction-free, so it sits well inside the
    recurrence's allowance of the exact values; the two then differ by at
    most twice that allowance."""
    conv = _ScaledExpSource(lambda count: binomial_series(float(rho), count))
    want = conv.extend_to(N_ORACLE)[:N_ORACLE]
    got = _KovariIntSource(rho).extend_to(N_ORACLE)[:N_ORACLE]
    n = np.arange(N_ORACLE)
    assert np.all(np.abs(got - want) <= 2.0 * ulp_budget(rho, n))


@pytest.mark.parametrize("rho,gap", [(2, 3e-2), (3, 1e-1), (3, 5e-2)])
def test_kovari_int_log_M_is_the_closed_form_near_the_boundary(rho, gap):
    """log M = (1-r)^-rho within the truncation tolerance plus the
    coefficients' allowance at the horizon (91k terms for rho = 2 at gap
    3e-2, 500k for rho = 3 at 5e-2)."""
    tol = 1e-12
    kov = family("kovari", rho=rho)
    horizon = truncation_horizon(kov, 1.0 - gap, tol)
    got = log_positive_value(kov, 1.0 - gap, tol)
    want = gap ** -rho
    assert abs(got - want) <= tol + ulp_budget(rho, horizon)


# ---------------------------------------------------------------------------
# The binomial table of (1-z)^-rho.

BINOMIAL_RHOS = [1e-6, 0.01, 0.5, 1.7, 2.5, 7.3, 123.4]
BINOMIAL_NS = np.unique(np.concatenate([
    np.arange(64), np.geomspace(64, 100_000, 40).astype(int)]))


@pytest.mark.parametrize("rho", BINOMIAL_RHOS)
def test_binomial_series_matches_mpmath(rho):
    """Each ratio step rounds at most a few times, so b_n is within 2n ulps
    of C(n+rho-1, n); past the float range it is inf."""
    import mpmath

    b = binomial_series(rho, int(BINOMIAL_NS[-1]) + 1)
    with mpmath.workdps(40):
        for n in BINOMIAL_NS:
            n = int(n)
            want = mpmath.binomial(n + mpmath.mpf(rho) - 1, n)
            if want > np.finfo(float).max:
                assert b[n] == math.inf, n
                continue
            err = float(abs(mpmath.mpf(b[n]) - want) / want)
            assert err <= max(2 * n, 1) * ULP, n


@pytest.mark.parametrize("count,want", [(0, []), (1, [1.0]), (2, [1.0, 0.3])])
def test_binomial_series_short_tables(count, want):
    assert binomial_series(0.3, count).tolist() == want


def test_kovari_half_convolution_matches_mpmath():
    """log a_n of exp((1-z)^-1/2) against the same convolution in mpmath on
    exact binomials."""
    import mpmath

    count = 600
    got = _ScaledExpSource(
        lambda c: binomial_series(0.5, c)).extend_to(count)[:count]
    with mpmath.workdps(40):
        kb = [k * mpmath.binomial(k - mpmath.mpf(0.5), k)
              for k in range(count)]
        a = [mpmath.e]
        for n in range(1, count):
            a.append(mpmath.fdot(kb[1:n + 1], a[::-1]) / n)
        want = np.array([float(mpmath.log(v)) for v in a])
    assert np.max(np.abs(got - want)) <= 2e-14


def test_overflowing_binomial_table_is_a_validation_error(src_env):
    """kovari(300)'s table passes the float range within 2048 terms.  The
    message names the overflow, and numpy's overflow warnings stay off
    stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "wvlab", "eval", "--family", "kovari",
         "--rho", "300", "--grid-geo", "0.1:0.9:3"],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (
        "validation error: the binomial table of (1-z)^-300 overflows the "
        "float range: n*b_n is inf from n = 1022\n")
    assert "RuntimeWarning" not in proc.stderr


def test_overflowing_k_b_k_is_a_validation_error():
    """kovari(300)'s b_n is finite up to n = 1049 but n*b_n only up to
    1021; the convolution must not turn the overflow into log a_n = -inf."""
    with pytest.raises(ValidationError):
        family("kovari", rho=300).log_coeffs(1049)


# ---------------------------------------------------------------------------
# The exp-of-series convolution.


class SeedScaledExpSource:
    """The original loop: a negative-stride ``np.dot`` per coefficient."""

    def __init__(self, b_fn):
        self._b_fn = b_fn
        self._kb = np.empty(0)
        self._v = np.empty(0)
        self._shift = 0.0
        self._logc = np.empty(0)

    def extend_to(self, stop):
        cur = self._logc.size
        if stop <= cur:
            return self._logc
        grow = max(stop, 2 * cur, 256)
        if self._kb.size < grow:
            b = np.asarray(self._b_fn(grow), dtype=float)
            self._kb = b * np.arange(grow, dtype=float)
        v = np.empty(grow)
        v[:cur] = self._v
        logc = np.empty(grow)
        logc[:cur] = self._logc
        if cur == 0:
            b0 = float(np.asarray(self._b_fn(1), dtype=float)[0])
            v[0] = 1.0
            self._shift = b0
            logc[0] = b0
            cur = 1
        for n in range(cur, grow):
            if v[n - 1] > _RESCALE_THRESHOLD:
                v[:n] *= math.exp(-_RESCALE_SHIFT)
                self._shift += _RESCALE_SHIFT
            s = float(np.dot(self._kb[1: n + 1], v[n - 1:: -1])) / n
            v[n] = s
            logc[n] = (math.log(s) + self._shift) if s > 0 else LOG_ZERO
        self._v = v
        self._logc = logc
        return self._logc


B_FNS = {
    "kovari(0.5)": lambda count: binomial_series(0.5, count),
    "kovari(2)": lambda count: binomial_series(2.0, count),
    # exp(40/(1-z)) passes 1e200 within 2000 terms, so it rescales
    "exp(40/(1-z))": lambda count: np.full(count, 40.0),
    # a polynomial: b_k = 0 from k = 3 on
    "exp(1+z+z^2)": lambda count: (np.arange(count) < 3).astype(float),
    # every odd coefficient of exp(z^2) is 0, its log -inf
    "exp(z^2)": lambda count: (np.arange(count) == 2).astype(float),
}


@pytest.mark.parametrize("name", sorted(B_FNS))
def test_scaled_exp_source_matches_the_seed_loop(name):
    b_fn = B_FNS[name]
    oracle, source = SeedScaledExpSource(b_fn), _ScaledExpSource(b_fn)
    for stop in (1, 300, 700, 3000):
        want, got = oracle.extend_to(stop), source.extend_to(stop)
        assert stop <= got.size <= want.size
        assert np.allclose(got, want[:got.size], rtol=1e-13, atol=0.0), stop
    assert oracle._shift == source._shift


def direct_loop(b_fn, stop):
    """``_exp_step`` for every value, rescaling before v_n when v_{n-1} has
    passed the threshold: the scaled values, the shift, and each log a_n
    as it is computed."""
    kbr = families_mod._reversed_kb(np.asarray(b_fn(stop), dtype=float))
    v, logs = np.empty(stop), np.empty(stop)
    v[0] = 1.0
    logs[0] = shift = float(np.asarray(b_fn(1), dtype=float)[0])
    for n in range(1, stop):
        if v[n - 1] > _RESCALE_THRESHOLD:
            v[:n] *= math.exp(-_RESCALE_SHIFT)
            shift += _RESCALE_SHIFT
        v[n] = families_mod._exp_step(kbr, v, n)
        logs[n] = math.log(v[n]) + shift if v[n] > 0 else LOG_ZERO
    return v, shift, logs


def kovari_b_fn(rho):
    return lambda count: binomial_series(rho, count)


@pytest.mark.parametrize("rho", [0.01, 0.5, 0.25, 2.5, 7.3])
def test_scaled_exp_source_matches_the_direct_loop(rho):
    """The blocked convolution against the plain loop out to 30K terms,
    within a relative 1e-13 on the logs (and 1e-13 absolute, a relative
    1e-13 on the coefficient, where log a_n passes 0, as it does for
    kovari(0.25) near n = 6500).  kovari(2.5) and kovari(7.3) grow so fast
    that an FFT product in one piece would fail every certificate."""
    count = 30_000
    want = direct_loop(kovari_b_fn(rho), count)[2]
    got = _ScaledExpSource(kovari_b_fn(rho)).extend_to(count)[:count]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("rho", [1e-6, 0.01, 0.1, 0.5, 2.5, 7.3])
def test_kovari_blocks_keep_their_certificates(rho, monkeypatch):
    """Out to 30K terms no block after the first falls back to the plain
    step, from a v dominated by v_0 (small rho) to one that grows by half
    a nat per term (rho = 7.3)."""
    fallbacks = []
    direct = _ScaledExpSource._direct

    def counted(self, n0, n1):
        fallbacks.append(n0)
        return direct(self, n0, n1)

    monkeypatch.setattr(_ScaledExpSource, "_direct", counted)
    _ScaledExpSource(kovari_b_fn(rho)).extend_to(30_000)
    assert fallbacks == [1]  # the first block


def walk_stops(top):
    """The prefix lengths a walk asks for: 512, then an eighth more (at
    least 512) per step, as ``series._scan`` grows its window."""
    stops = [series_mod._FIRST_WINDOW]
    while stops[-1] < top:
        stop = stops[-1]
        stops.append(stop + max(stop // series_mod._GROWTH,
                                series_mod._FIRST_WINDOW))
    return stops


@pytest.mark.parametrize("stops", [
    (1, 300, 299, 700, 701, 3000, 2000, 5000, 5001),
    tuple(walk_stops(30_000)),
], ids=["prefix_stops", "walk_eighths"])
def test_scaled_exp_source_bits_do_not_depend_on_the_fill_steps(stops):
    """Pending history sums must survive every growth of the buffers:
    losing one changes the logs without failing any certificate, which
    bounds rounding only."""
    top = max(stops)
    want = _ScaledExpSource(kovari_b_fn(0.5)).extend_to(top)[:top]
    source = _ScaledExpSource(kovari_b_fn(0.5))
    for stop in stops:
        got = source.extend_to(stop)
        assert np.array_equal(bits(got), bits(want[:got.size])), stop
    assert got.size == top


@pytest.mark.parametrize("name", ["kovari(0.5)", "exp(40/(1-z))"])
def test_a_failed_certificate_falls_back_to_the_direct_step(name,
                                                           monkeypatch):
    """With ``_gamma`` raised past every budget no block is kept, and every
    value (and the rescaling, which exp(40/(1-z)) does at n = 1476) is the
    plain loop's to the bit."""
    monkeypatch.setattr(families_mod, "_gamma", lambda m: math.inf)
    b_fn, stop = B_FNS[name], 3000
    source = _ScaledExpSource(b_fn)
    logs = source.extend_to(stop)[:stop]
    v, shift, _ = direct_loop(b_fn, stop)
    assert np.array_equal(bits(source._v[:stop]), bits(v))
    assert source._shift == shift
    if name == "kovari(0.5)":  # no rescale: the logs follow
        assert np.array_equal(bits(logs), bits(np.log(v) + shift))


def exact_products(x, y):
    """The exact convolution of two float vectors, as Fractions: every
    float is an integer over the largest denominator among them, so the
    integers convolve exactly."""
    fx = [fractions.Fraction(t) for t in x.tolist()]
    fy = [fractions.Fraction(t) for t in y.tolist()]
    den = max(f.denominator for f in fx + fy)
    out = np.convolve(np.array([int(f * den) for f in fx], dtype=object),
                      np.array([int(f * den) for f in fy], dtype=object))
    return [fractions.Fraction(int(t), den * den) for t in out]


@pytest.mark.parametrize("size,seed,growth", [
    (512, 0, 0.0), (512, 1, 0.05), (1024, 2, 0.0), (1024, 3, 0.02)])
def test_fft_product_error_is_inside_its_bound(size, seed, growth):
    """The FFT product of one level, in pieces, against the exact product
    in Fractions: every output is within the bound it adds to its block.
    The vectors are random and nonnegative, flat or growing like v and
    with some exact zeros."""
    rng = np.random.default_rng(seed)
    x = rng.random(size) * np.exp(growth * np.arange(size))
    y = rng.random(size) * np.arange(size, 2 * size) ** 0.5
    x[rng.random(size) < 0.05] = 0.0
    source = _ScaledExpSource(kovari_b_fn(0.5))
    source._v = np.zeros(3 * size)
    source._err = np.zeros(3 * size // families_mod._EXP_BLOCK)
    source._fft_product(size, x, y)
    want = exact_products(x, y)
    got = source._v[size:3 * size - 1]
    bound = np.repeat(source._err, families_mod._EXP_BLOCK)[size:]
    for n, (g, w) in enumerate(zip(got.tolist(), want)):
        assert abs(fractions.Fraction(g) - w) <= bound[n], n


def test_overflow_past_the_fill_is_no_error():
    """kovari(150.5)'s n*b_n is inf from n = 6048.  A fill to 6043 reads
    k*b_k only below its stop, so it succeeds whether or not an earlier
    fill to 3034 built a shorter table, with the same bits, and the next
    fill past 6048 names the overflow."""
    b_fn = kovari_b_fn(150.5)
    stepped = _ScaledExpSource(b_fn)
    stepped.extend_to(3034)
    got = stepped.extend_to(6043)
    want = _ScaledExpSource(b_fn).extend_to(6043)
    assert np.array_equal(bits(got), bits(want))
    with pytest.raises(ValidationError, match="inf from n = 6048"):
        stepped.extend_to(6049)


def test_overflow_inside_the_last_block_of_a_fill_is_raised_later():
    """kovari(300)'s n*b_n is inf from n = 1022, inside the block of 992 to
    1023.  A fill to 1000 computes that whole block and succeeds; the
    values it keeps from 1022 on are no coefficients, so a later fill that
    reaches 1022 names the overflow instead of serving them."""
    b_fn = kovari_b_fn(300)
    want = _ScaledExpSource(b_fn).extend_to(1022)
    source = _ScaledExpSource(b_fn)
    got = source.extend_to(1000)
    assert np.array_equal(bits(got), bits(want[:1000]))
    assert np.array_equal(bits(source.extend_to(1022)), bits(want))
    with pytest.raises(ValidationError, match="inf from n = 1022"):
        source.extend_to(1023)


def test_eval_near_an_overflowing_table_succeeds(src_env):
    """At r = 0.04 kovari(150.5) peaks at nu = 2917 and its terms past
    n = 6040 are far below the max, so eval reaches log M = 0.96^-150.5."""
    proc = subprocess.run(
        [sys.executable, "-m", "wvlab", "eval", "--family", "kovari",
         "--rho", "150.5", "--grid-gap", "0.04:0.9999:2"],
        capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[2].split(",")
    assert int(row[2]) == 2917
    assert float(row[3]) == pytest.approx(0.96 ** -150.5, rel=1e-12)


def test_kovari_half_bytes_do_not_depend_on_the_blas_threads(src_env,
                                                             tmp_path):
    """eval on kovari(0.5) out to gap 1e-3 (a horizon of 69K terms) writes
    the same bytes with one BLAS thread and with two."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(src_env, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "wvlab", "eval", "--family", "kovari",
             "--rho", "0.5", "--grid-gap", "0.9:0.1:3", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


FFT_IMPORT_GUARD = """
import sys
from wvlab import family
kov = family("kovari", rho=0.5)
kov.log_coeffs(480)
assert "numpy.fft" not in sys.modules
kov.log_coeffs(481)
assert "numpy.fft" in sys.modules
"""


def test_numpy_fft_loads_with_the_first_fft_product(src_env):
    """Products up to 256 terms are direct; the first FFT level (512) runs
    after the block that ends at 512, which a fill to 481 computes."""
    proc = subprocess.run([sys.executable, "-c", FFT_IMPORT_GUARD],
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("rho", [0.5, 2.0, 3.0])
def test_kovari_log_M_is_the_closed_form(rho):
    """log M(r) = (1-r)^-rho exactly for exp((1-z)^-rho), whose
    coefficients are all positive."""
    kov = family("kovari", rho=rho)
    for r in (0.1, 0.3, 0.5, 0.7, 0.8):
        want = (1.0 - r) ** -rho
        got = log_positive_value(kov, r)
        assert abs(got - want) <= 1e-9 * want, r


# ---------------------------------------------------------------------------
# Sources compute only what is asked.


class CountingFormula:
    """``-log n!``, recording the largest n it was evaluated at."""

    def __init__(self):
        self.top = -1

    def __call__(self, n):
        if n.size:
            self.top = max(self.top, int(n.max()))
        return -gammaln(n + 1.0)


@pytest.mark.parametrize("make", [
    lambda: _KovariIntSource(1),
    lambda: _KovariIntSource(3),
    lambda: _ScaledExpSource(lambda count: binomial_series(0.5, count)),
], ids=["kovari_int1", "kovari_int3", "scaled_exp"])
def test_sources_fill_exactly_the_prefix_asked_for(make):
    source = make()
    size = 0
    for stop in (1, 300, 299, 700, 701, 3000, 2000, 5000, 5001):
        size = max(size, stop)
        assert source.extend_to(stop).size == size, stop


def test_vectorized_source_computes_only_the_block_asked_for():
    fn = CountingFormula()
    source = VectorizedSource(fn)
    for lo, hi in ((0, 1), (0, 300), (5000, 5001), (700, 3000), (2, 2)):
        fn.top = -1
        got = source.block(lo, hi)
        assert np.array_equal(bits(got), bits(-gammaln(
            np.arange(lo, hi, dtype=float) + 1.0))), (lo, hi)
        assert fn.top == (hi - 1 if hi > lo else -1)
    assert vars(source) == {"_fn": fn}  # no coefficient is kept


def test_kovari1_holds_one_growth_step_past_the_optimality_horizon():
    """Out to the optimality workload's last radius (gap 1e-3) kovari(1)
    computes up to one growth step past what its horizon reads, not the
    next power of two (2,097,152)."""
    q = (1e-3 / 0.1) ** (1.0 / 59)
    grid = RadialGrid.geometric_in_gap(0.9, q, 60)
    kov = family("kovari", rho=1)
    evaluate_grid(kov, grid, 1e-9)
    size = kov._source.extend_to(0).size
    reach = truncation_horizon(kov, grid.points[-1], 1e-9) + TAIL_RUN + 1
    assert reach == 1_335_739
    step = max(reach // series_mod._GROWTH, series_mod._FIRST_WINDOW)
    assert reach <= size <= reach + step


def spy_fills(monkeypatch, cls):
    """Record the stop of every fill of ``cls``."""
    stops, fill = [], cls._fill
    monkeypatch.setattr(cls, "_fill", lambda self, cur, stop:
                        stops.append(stop) or fill(self, cur, stop))
    return stops


@pytest.mark.parametrize("cls,arg", [
    (_KovariIntSource, 1),
    (_ScaledExpSource, kovari_b_fn(0.5)),
], ids=["kovari_int1", "scaled_exp"])
def test_recurrence_sources_refuse_a_prefix_past_the_cap(cls, arg,
                                                          monkeypatch):
    """A prefix longer than the cap is refused before any fill, with a
    message that names the cap; a prefix up to the cap has the bits of an
    uncapped source's."""
    want = cls(arg).extend_to(1000).copy()
    monkeypatch.setattr(series_mod._PrefixSource, "_cap", 1000)
    stops = spy_fills(monkeypatch, cls)
    source = cls(arg)
    with pytest.raises(ValidationError, match="past the cap of 1000"):
        source.extend_to(2000)
    assert stops == [] and source._end == 0
    assert np.array_equal(bits(source.extend_to(1000)), bits(want))
    with pytest.raises(ValidationError, match="past the cap of 1000"):
        source.extend_to(1001)
    assert stops == [1000]


def test_kovari_past_the_hard_cap_computes_no_coefficient(monkeypatch):
    """At the real cap the refusal comes before the first fill, where the
    fill used to compute about 1e8 coefficients and then fail."""
    stops = spy_fills(monkeypatch, _KovariIntSource)
    with pytest.raises(ValidationError,
                       match=f"past the cap of {series_mod.HARD_CAP}"):
        family("kovari", rho=1).log_coeffs(series_mod.HARD_CAP + 2)
    assert stops == []


def test_each_convolution_block_is_computed_once(monkeypatch):
    """Stepped fills start each block once, in order, as one fill to the
    last stop does: the whole blocks a fill computes past its stop are
    kept, not computed again."""
    starts = []
    block, direct = _ScaledExpSource._block, _ScaledExpSource._direct
    monkeypatch.setattr(_ScaledExpSource, "_block", lambda self, n0:
                        starts.append(n0) or block(self, n0))
    monkeypatch.setattr(_ScaledExpSource, "_direct", lambda self, n0, n1:
                        starts.append(n0) or direct(self, n0, n1))
    stepped = _ScaledExpSource(kovari_b_fn(0.5))
    for stop in (1, 31, 33, 1000, 1022, 3034, 6043):
        stepped.extend_to(stop)
    got = list(starts)
    starts.clear()
    _ScaledExpSource(kovari_b_fn(0.5)).extend_to(6043)
    assert got == starts
    assert got[0] == 1 and got[1:] == list(range(32, 6048, 32))


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["blocks", "fallbacks"])
def test_the_k_b_k_table_is_built_once_per_level(fallback, monkeypatch):
    """Stepped fills build the table of ``k*b_k`` once per level begun, to
    twice the level, and keep it: a fill that falls back past its level
    (1100 after 1000) builds nothing."""
    if fallback:
        monkeypatch.setattr(families_mod, "_gamma", lambda m: math.inf)
    counts, build = [], _ScaledExpSource._build
    monkeypatch.setattr(_ScaledExpSource, "_build", lambda self, count:
                        counts.append(count) or build(self, count))
    source = _ScaledExpSource(kovari_b_fn(0.5))
    for stop in (1, 31, 33, 1000, 1100, 3034, 6043):
        source.extend_to(stop)
    assert counts == [64, 128, 2048, 4096, 8192]
    assert source._kbr.size == 8192


def test_the_neumann_chunk_outlives_a_fill(monkeypatch):
    """A fill that starts inside the last fill's Neumann chunk reuses its
    matrices: stepped fills find the chunk each block's solve finds in one
    fill."""
    held, neumann = [], _ScaledExpSource._neumann
    monkeypatch.setattr(_ScaledExpSource, "_neumann", lambda self, n0:
                        held.append(self._chunk_at) or neumann(self, n0))
    stepped = _ScaledExpSource(kovari_b_fn(0.5))
    for stop in (1000, 1100, 3034, 6043):
        stepped.extend_to(stop)
    got = list(held)
    held.clear()
    _ScaledExpSource(kovari_b_fn(0.5)).extend_to(6043)
    assert got == held
    assert got.count(-1) == 1  # only the first solve finds no chunk


@pytest.mark.parametrize("reader", ["kovari_int1", "scaled_exp",
                                    "first_block"])
def test_handed_out_prefixes_are_read_only(reader):
    """A write into a prefix the sources hand out raises, and later reads,
    past a growth of the buffer too, keep their bits."""
    if reader == "first_block":  # a walk's first block of a formula series
        first = series_mod._FirstBlock(family("suleimanov", epsilon=0.5))

        def read(stop):
            return first.block(0, stop)
    else:
        series = family("kovari", rho=1 if reader == "kovari_int1" else 0.5)
        read = series.log_coeffs
    want = read(10).copy()
    with pytest.raises(ValueError, match="read-only"):
        read(10)[3] = 0.0
    assert np.array_equal(bits(read(10)), bits(want))
    assert np.array_equal(bits(read(5000)[:10]), bits(want))
    if reader != "first_block":
        assert bits(series.log_coeff(3)) == bits(want[3])


class RecordingFormula(CountingFormula):
    """A ``CountingFormula`` that also keeps every index it evaluated."""

    def __init__(self):
        super().__init__()
        self.indices = []

    def __call__(self, n):
        self.indices.append(n.astype(int))
        return super().__call__(n)


def test_first_block_keeps_the_walks_first_coefficients():
    """A walk's ``_FirstBlock`` gives the series's term bits below, across
    and past ``_buffer_size()``; it computes each index below that once
    over many reads, and asks the series again for every read past it."""
    cap, x = series_mod._buffer_size(), math.log(0.999)
    fn = RecordingFormula()
    series = series_mod.PowerSeries(VectorizedSource(fn), 1.0)
    plain = series_mod.PowerSeries(
        VectorizedSource(lambda n: -gammaln(n + 1.0)), 1.0)
    first = series_mod._FirstBlock(series)
    reads = [(0, 1), (0, 300), (100, 200), (200, 5000), (4999, 5000),
             (cap - 10, cap), (cap - 20, cap + 10), (cap, cap + 5),
             (cap + 3, cap + 7), (0, cap + 2), (7, 7)]
    want = plain._terms(x, cap + 10)
    past = np.zeros(cap + 10, dtype=int)
    for lo, hi in reads:
        got = series_mod._read(first.terms, x, lo, hi)
        assert np.array_equal(bits(got), bits(want[lo:hi])), (lo, hi)
        past[max(lo, cap):hi] += 1
    assert fn.top == cap + 9
    counts = np.bincount(np.concatenate(fn.indices), minlength=cap + 10)
    assert (counts[:cap] == 1).all()
    assert np.array_equal(counts[cap:], past[cap:])


CAP = series_mod._buffer_size()


@pytest.mark.parametrize("make,r", [
    (lambda: family("suleimanov", epsilon=0.5), 0.9999),
    (lambda: family("suleimanov", epsilon=0.3), 0.9999),
    (lambda: family("exp"), 4e5),
    (lambda: family("geometric"), 0.9999),
    (lambda: family("monomial", coeff=2.5, degree=CAP + 9), 0.9999),
    (lambda: family("formula", formula="sqrt(n) - log(n + 1)", radius=1),
     0.9999),
    (lambda: series_mod.PowerSeries.from_log_coeffs(
        np.sin(np.arange(CAP + 70_000.0)), radius=1.0), 0.9999),
], ids=["suleimanov0.5", "suleimanov0.3", "exp", "geometric", "monomial",
        "formula", "from_log_coeffs"])
def test_terms_written_in_place_keep_their_bits(make, r):
    """A walk's term logs, each piece's ``n*x`` written first and the
    formula then run over its index array, are those of
    ``PowerSeries._terms`` bit for bit: from ``lo = 0``, across the first
    block's cap in one piece, and past it."""
    series, x = make(), math.log(r)
    terms = series_mod._writer(series)
    want = series._terms(x, CAP + 3 * 2 ** 16)
    for lo, hi in ((0, 3), (CAP - 7, CAP + 70_000),
                   (CAP + 2 ** 16, CAP + 3 * 2 ** 16)):
        got = series_mod._read(terms, x, lo, hi)
        assert np.array_equal(bits(got), bits(want[lo:hi])), (lo, hi)


def test_in_place_formulas_keep_their_first_coefficients():
    """Read from ``n = 0``: suleimanov's ``a_0 = 0`` is ``-inf``, in its
    coefficients and its terms, and exp's ``log 0! = log 1!`` is +0."""
    x = math.log(0.9)
    for eps in (0.5, 0.3):
        series = family("suleimanov", epsilon=eps)
        terms = series_mod._writer(series)
        assert series.log_coeffs(3)[0] == LOG_ZERO
        assert series_mod._read(terms, x, 0, 3)[0] == LOG_ZERO
        assert series_mod._read(terms, x, 1, 3)[0] == x + 1.0
    assert np.array_equal(bits(family("exp").log_coeffs(2)), [0, 0])
