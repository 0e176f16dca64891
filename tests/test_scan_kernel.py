"""The one-window horizon kernel against the original per-scan search, and
windows that slide past the block size."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvlab import PowerSeries, RadialGrid, evaluate_grid, family, \
    log_max_term, log_positive_value, stats_grid, truncation_horizon
from wvlab import logdomain
from wvlab import series as series_mod
from wvlab.logdomain import log_sum_exp_blocks
from wvlab.series import TAIL_RUN, _find_horizon, _scan, _Scan

LOG_ZERO = -math.inf


def oracle_find_horizon(t, log_tail_tol):
    """The original search: running-max, achiever and run-length arrays."""
    cm = np.maximum.accumulate(t)
    if cm[-1] == LOG_ZERO:
        return None
    small = t < cm + log_tail_tol
    notsmall = np.flatnonzero(~small)
    if notsmall.size == 0:
        return None
    runs = np.empty(notsmall.size, dtype=np.int64)
    runs[:-1] = np.diff(notsmall) - 1
    runs[-1] = t.size - notsmall[-1] - 1
    idx = np.arange(t.size)
    achieves = np.where(t == cm, idx, -1)
    nu_run = np.maximum.accumulate(achieves)
    for i in np.flatnonzero(runs >= TAIL_RUN):
        p = int(notsmall[i])
        nu_p = int(nu_run[p])
        if nu_p < 0:
            continue
        if p > nu_p:
            horizon = p
        elif runs[i] >= TAIL_RUN + 1:
            horizon = p + 1
        else:
            continue
        return _Scan(float(cm[horizon]), int(nu_run[horizon]), horizon)
    return None


def oracle_scan(series, x, tol):
    """The original scan: a fresh window from 512 terms for one tolerance."""
    log_tail_tol = math.log(tol / TAIL_RUN)
    stop = 512
    while True:
        found = oracle_find_horizon(series._terms(x, stop), log_tail_tol)
        if found is not None:
            return found
        stop *= 2


# Integer-valued terms make exact ties, and exact hits on the threshold
# ``running_max + log_tail_tol``, common.
_value = st.integers(-40, 0).map(float)
_segment = st.one_of(
    st.lists(_value, min_size=1, max_size=30),                  # bumps
    st.tuples(_value, st.integers(2, 6)).map(lambda p: [p[0]] * p[1]),
    st.tuples(st.sampled_from([-200.0, LOG_ZERO]),              # tail runs
              st.sampled_from([TAIL_RUN - 1, TAIL_RUN, TAIL_RUN + 1,
                               TAIL_RUN + 2])).map(lambda p: [p[0]] * p[1]),
)
_terms = st.tuples(
    st.integers(0, 60),                                         # -inf lead
    st.lists(_segment, min_size=1, max_size=10),
).map(lambda p: np.array([LOG_ZERO] * p[0] + sum(p[1], []), dtype=float))
_log_tail_tol = st.sampled_from([-30.0, -10.0, -5.0, -1.0, 0.0, 3.0])
# Block sizes small enough that the arrays span many all-big, all-small and
# mixed blocks, plus the production size.
_block = st.sampled_from([1, 2, 3, 8, 37, series_mod._BLOCK])


@settings(max_examples=500, deadline=None)
@given(t=_terms, log_tail_tol=_log_tail_tol, block=_block)
def test_find_horizon_matches_original(t, log_tail_tol, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_mod, "_BLOCK", block)
        assert _find_horizon(t, log_tail_tol) == \
            oracle_find_horizon(t, log_tail_tol)


def test_find_horizon_leaves_terms_untouched():
    t = np.array([0.0, 1.0, -5.0] + [-100.0] * 60)
    before = t.copy()
    for log_tail_tol in (-10.0, -3.0):
        _find_horizon(t, log_tail_tol)
    assert np.array_equal(t, before)


_tol = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2])


@settings(max_examples=150, deadline=None)
@given(t=_terms, k=st.integers(0, 4), tol=_tol, block=_block)
def test_kernel_matches_original_scan(t, k, tol, block):
    if not np.any(t > LOG_ZERO):
        return  # an all-zero series is refused before any scan
    series = PowerSeries.from_log_coeffs(t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_mod, "_BLOCK", block)
        scan, window, stop = _scan(series, 0.0, tol, 512 * 2 ** k)
    assert scan == oracle_scan(series, 0.0, tol)
    assert window.size == stop
    assert scan.horizon + TAIL_RUN < stop


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def grown(stop):
    """The window size one growth step past ``stop``."""
    return min(stop + max(stop // series_mod._GROWTH,
                          series_mod._FIRST_WINDOW), series_mod.HARD_CAP)


@settings(max_examples=300, deadline=None)
@given(t=_terms, tol=_tol, x=st.sampled_from([0.0, -0.37, -1e-3]),
       start=st.integers(1, 100), first=st.sampled_from([1, 2, 7, 64]),
       growth=st.sampled_from([1, 2, 4, 10 ** 9]), block=_block)
def test_resumed_search_matches_one_shot(t, tol, x, start, first, growth,
                                         block):
    """Growing the window in steps down to one term and resuming the search
    gives the horizon a one-shot search of the final window gives, and the
    window is the one ``_terms`` builds at once."""
    if not np.any(t > LOG_ZERO):
        return
    series = PowerSeries.from_log_coeffs(t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_mod, "_BLOCK", block)
        mp.setattr(series_mod, "_FIRST_WINDOW", first)
        mp.setattr(series_mod, "_GROWTH", growth)
        # every horizon lies within t, so a search that misses one stops
        # at this cap instead of crawling on one term at a time
        mp.setattr(series_mod, "HARD_CAP", t.size + 2 * TAIL_RUN + 100)
        scan, window, stop = _scan(series, x, tol, start)
        one_shot = _find_horizon(window, math.log(tol / TAIL_RUN))
    assert scan == one_shot
    assert window.size == stop
    assert np.array_equal(bits(window), bits(series._terms(x, stop)))


@pytest.mark.parametrize("family_id,params,r", [
    ("suleimanov", {"epsilon": 0.5}, 0.99),
    ("kovari", {"rho": 1}, 0.99),
    ("geometric", {}, 0.995),
    ("exp", {}, 300.0),
])
def test_kernel_result_independent_of_start(family_id, params, r,
                                            monkeypatch):
    # A smaller cap keeps the over-cap start cheap; the kernel must read
    # the cap at call time.
    monkeypatch.setattr(series_mod, "HARD_CAP", 2 ** 18)
    series = family(family_id, **params)
    x = math.log(r)
    for tol in (1e-9, 1e-15):
        expect = oracle_scan(series, x, tol)
        reach = expect.horizon + TAIL_RUN + 1
        cold, _, cold_stop = _scan(series, x, tol)
        assert cold == expect
        assert cold_stop <= grown(reach)
        for start in [512 * 2 ** k for k in range(10)] + [2 ** 19]:
            scan, t, stop = _scan(series, x, tol, start)
            assert scan == expect
            assert t.size == stop
            assert scan.horizon + TAIL_RUN < stop
            # tight: the start, or at most one growth step past what the
            # horizon reads
            assert stop <= max(min(start, 2 ** 18), grown(reach))
            # a window grown in place is the window built at once
            assert np.array_equal(bits(t), bits(series._terms(x, stop)))
        assert stop == 2 ** 18


# ---------------------------------------------------------------------------
# Windows that slide past the block size, and pass 2.

SLIDING = [
    ("suleimanov", {"epsilon": 0.5}),
    ("kovari", {"rho": 1}),
    ("geometric", {}),
    ("formula", {"formula": "log(2+(-1)**n)+sqrt(n)", "radius": 1.0}),
]


def walk(series, xs, tol):
    """Each x's max term, central index and horizon, and log F, in one
    walk."""
    return series_mod._walk(series, xs, tol, lambda w: (
        _Scan(w.log_mu, w.nu, w.horizon), w.log_F))


@pytest.mark.parametrize("family_id,params", SLIDING)
def test_sliding_window_keeps_the_in_memory_results(family_id, params,
                                                    monkeypatch):
    """With 1024-term blocks every window here slides (the horizons run
    from about 1,300 to 200,000 terms).  Horizons, nu and log_mu are those
    of the in-memory scan and of the original search, bit for bit; log F is
    the in-memory window's sum over the same blocks, bit for bit, and
    within 1e-15 of its sum as one block."""
    xs = [math.log(r) for r in RadialGrid.geometric_in_gap(0.98, 0.72,
                                                             8).points]
    tols = (1e-9, 1e-12)
    in_memory = [walk(family(family_id, **params), xs, tol) for tol in tols]
    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series = family(family_id, **params)
    for tol, rows in zip(tols, in_memory):
        slid = walk(series, xs, tol)
        for x, (scan, log_F), (want, one_block) in zip(xs, slid, rows):
            assert scan == want == oracle_scan(series, x, tol)
            assert _scan(series, x, tol)[1] is None  # the window slid
            t = series._terms(x, scan.horizon + 1)
            blocks = [t[a:a + 1024] for a in range(0, t.size, 1024)]
            assert bits(log_F) == bits(log_sum_exp_blocks(
                blocks, float(t.max()), np.empty(1024)))
            assert log_F == pytest.approx(one_block, rel=1e-15, abs=1e-15)


def test_sums_run_only_for_points_that_read_them(monkeypatch):
    """Pass 2 sums a window only when its point reads it: once per block
    for log F, never for the max term or the horizon."""
    calls = []
    block_sum = logdomain._sum_exp
    monkeypatch.setattr(logdomain, "_sum_exp",
                        lambda t, m, out: calls.append(t.size)
                        or block_sum(t, m, out))
    series, r = family("suleimanov", epsilon=0.5), 0.999
    log_max_term(series, r)
    truncation_horizon(series, r, 1e-9)
    assert calls == []
    log_F = log_positive_value(series, r)
    assert len(calls) == 1
    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    horizon = truncation_horizon(series, r, 1e-9)
    assert len(calls) == 1
    assert log_positive_value(series, r) == pytest.approx(log_F, rel=1e-15)
    assert calls[1:] == [1024] * (horizon // 1024) + [horizon % 1024 + 1]


def test_memory_stays_flat_past_the_block_size():
    """At gap 2e-4 the horizons reach 8.1M terms (10M for the moment
    sums), 65 MB of term logs; the walks hold a few MB of buffers."""
    grid = RadialGrid.geometric_in_gap(1 - 8e-4, 0.5, 3)
    series = family("suleimanov", epsilon=0.5)
    tracemalloc.start()
    try:
        rows = evaluate_grid(series, grid, 1e-9)
        sts = stats_grid(series, [math.log(r) for r in grid.points])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[-1].nu > 6_000_000 and sts[-1].g1 > 6_000_000
    assert peak < 48 * 2 ** 20


def test_monomial_of_large_degree_holds_no_coefficient_array():
    """``z^k`` at k = 3M has its horizon at k + 1 at every radius: its
    coefficients come from the closed form a block at a time, so neither
    the series nor the walk holds k of them (24 MB)."""
    k = 3_000_000
    tracemalloc.start()
    try:
        mono = family("monomial", coeff=1, degree=k)
        rows = evaluate_grid(mono, RadialGrid.geometric(1, 2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for row in rows:
        assert row.nu == k
        assert row.log_mu == row.log_M == k * math.log(row.r)
    assert peak < 32 * 2 ** 20
