"""The one-window horizon kernel against the original per-scan search,
windows that slide past the block size, the jumps of declared-concave
families, and monomials in closed form."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvlab import PowerSeries, RadialGrid, evaluate_grid, family, \
    log_max_term, log_positive_value, stats_grid, truncation_horizon
from wvlab import series as series_mod
from wvlab.cli import main
from wvlab.errors import TruncationError
from wvlab.logdomain import _sum_exp
from wvlab.series import TAIL_RUN, VectorizedSource, _find_horizon, \
    _past_peak, _scan, _Scan

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
            held = _scan(series, x, tol)[1]  # the window slid or jumped
            assert held is None or held.size < scan.horizon + 1
            t = series._terms(x, scan.horizon + 1)
            m = float(t.max())
            assert bits(log_F) == bits(m + math.log(math.fsum(
                _sum_exp(t[a:a + 1024], m, np.empty(1024))
                for a in range(0, t.size, 1024))))
            assert log_F == pytest.approx(one_block, rel=1e-15, abs=1e-15)


def test_sums_run_only_for_points_that_read_them(monkeypatch):
    """Pass 2 sums a window only when its point reads it: once per block
    for log F, never for the max term or the horizon.  The quiet blocks, the
    leading ones that end left of the central index 50 or more below the
    max term, are not summed (their bound leaves log F's bits unchanged)."""
    calls = []
    block_sum = series_mod._sum_exp
    monkeypatch.setattr(series_mod, "_sum_exp",
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
    t = series._terms(math.log(r), horizon + 1)
    nu = int(t.size - 1 - np.argmax(t[::-1]))
    quiet = sum(1 for e in range(1023, nu, 1024) if t[e] <= t.max() - 50)
    assert quiet > 0
    assert calls[1:] == [1024] * (horizon // 1024 - quiet) + [
        horizon % 1024 + 1]


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


# ---------------------------------------------------------------------------
# Declared concavity: a full first buffer jumps to the peak and the horizon.

def undeclared(series):
    """The same source without the declaration: it always slides."""
    return PowerSeries(series._source, series.radius, series.label)


def pass1_terms(monkeypatch):
    """A list that collects the size of every term fill."""
    sizes, fill = [], series_mod._fill_terms
    monkeypatch.setattr(series_mod, "_fill_terms", lambda coeffs, out, x, lo:
                        sizes.append(out.size) or fill(coeffs, out, x, lo))
    return sizes


def slab_work():
    """Most terms a jump reads past the buffer: two slabs and the probes
    of two bisections out to ``HARD_CAP``."""
    probes = 3 * math.ceil(math.log2(series_mod.HARD_CAP))
    return 4 * series_mod._SLAB + TAIL_RUN + 2 + probes


JUMPS = [  # horizons at tol 1e-9 and 1e-15
    ("suleimanov", {"epsilon": 0.25}, 1 - 1e-5),   # 5.0M, 6.7M
    ("suleimanov", {"epsilon": 0.5}, 1 - 2e-4),    # 8.1M, 8.6M
    ("suleimanov", {"epsilon": 0.5}, 1 - 1e-4),    # 30.2M, 31.6M
    ("suleimanov", {"epsilon": 0.75}, 0.98),       # 2.04M, 2.07M
    ("exp", {}, 5.25e5),                           # 530k: peak in reach
    ("exp", {}, 4e6),                              # 4.01M
    ("geometric", {}, 1 - 1e-6),                   # 24.6M, 38.5M
]


@pytest.mark.parametrize("family_id,params,r", JUMPS)
def test_jump_keeps_the_slides_results(family_id, params, r, monkeypatch):
    """Max term, central index, horizon and log F of a declared family are
    those of the same source sliding, bit for bit; pass 1 reads one buffer
    and the slabs."""
    series = family(family_id, **params)
    x = math.log(r)
    for tol in (1e-9, 1e-15):
        want = walk(undeclared(series), [x], tol)
        sizes = pass1_terms(monkeypatch)
        got = series_mod._walk(series, [x], tol, lambda w: (
            _Scan(w.log_mu, w.nu, w.horizon), sizes.copy(), w.log_F))
        monkeypatch.undo()
        (scan, pass1, log_F), ((want_scan, want_F),) = got[0], want
        assert scan == want_scan
        assert bits(log_F) == bits(want_F)
        assert scan.horizon > series_mod._buffer_size()
        assert sum(pass1) <= series_mod._buffer_size() + slab_work()


@pytest.mark.parametrize("family_id,params,rs", [
    ("suleimanov", {"epsilon": 0.25}, (0.9993, 0.9997, 0.9999)),
    ("suleimanov", {"epsilon": 0.5}, (0.99, 0.997, 0.999)),
    ("suleimanov", {"epsilon": 0.75}, (0.95, 0.96, 0.97)),
    ("exp", {}, (3e3, 1e4, 6e4)),
    ("geometric", {}, (0.999, 0.9995, 0.9999)),
])
def test_jump_past_small_blocks_matches_the_original_search(
        family_id, params, rs, monkeypatch):
    """With 1024-term blocks every window here jumps, in one walk whose
    starts carry over; each result is the slide's and the original
    search's."""
    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series = family(family_id, **params)
    xs = [math.log(r) for r in rs]
    for tol in (1e-9, 1e-15):
        got = walk(series, xs, tol)
        assert got == walk(undeclared(series), xs, tol)
        for x, (scan, _) in zip(xs, got):
            assert scan.horizon > series_mod._buffer_size()
            assert scan == oracle_scan(series, x, tol)


def test_jump_with_slabs_that_overlap(monkeypatch):
    """Slabs wider than the tail: the horizon's slab starts just past the
    central index, inside the peak's slab, and the result is the slide's."""
    series, x = family("exp"), math.log(6e5)
    want = walk(undeclared(series), [x], 1e-9)
    monkeypatch.setattr(series_mod, "_SLAB", 50_000)
    assert walk(series, [x], 1e-9) == want


@pytest.mark.parametrize("patch", [("_SLAB", 1), ("_DELTA", 1e-3)],
                         ids=["narrow_slab", "loose_delta"])
def test_jump_falls_back_to_the_slide(patch, monkeypatch):
    """A slab too narrow for its edges to clear the peak by 2 delta, or a
    delta too large for any margin: no certificate holds, so the scan
    slides, with the slide's results."""
    series, x = family("suleimanov", epsilon=0.5), math.log(1 - 5e-4)
    want = walk(undeclared(series), [x], 1e-9)
    monkeypatch.setattr(series_mod, *patch)
    jumps = []
    jump = series_mod._jump
    monkeypatch.setattr(series_mod, "_jump",
                        lambda *a: jumps.append(jump(*a)) or jumps[-1])
    sizes = pass1_terms(monkeypatch)
    got = series_mod._walk(series, [x], 1e-9, lambda w: (
        _Scan(w.log_mu, w.nu, w.horizon), sizes.copy(), w.log_F))
    (scan, pass1, log_F), ((want_scan, want_F),) = got[0], want
    assert jumps == [None]
    assert scan == want_scan and bits(log_F) == bits(want_F)
    assert sum(pass1) > want_scan.horizon


def test_jump_reads_a_buffer_and_two_slabs_at_gap_2e4(monkeypatch):
    """The boundary workload's last radius: a horizon of 8.1M terms found
    from one buffer, two slabs and the probes; the scan returns that first
    buffer for pass 2."""
    series = family("suleimanov", epsilon=0.5)
    sizes = pass1_terms(monkeypatch)
    scan, t, _ = _scan(series, math.log(1 - 2e-4), 1e-9)
    assert t.size == series_mod._buffer_size() and scan.horizon > 8_000_000
    assert sum(sizes) <= series_mod._buffer_size() + slab_work()


@pytest.mark.parametrize("eps,gap,nu", [
    (0.25, 1e-5, None), (0.5, 1e-4, 24_997_500), (0.75, 0.012, None)])
def test_jump_central_index_is_the_continuous_maximiser_rounded(eps, gap,
                                                                 nu):
    """``n^eps + n log r`` peaks at ``(eps / -log r)^(1/(1-eps))``, so the
    central index is its floor or its ceiling."""
    x = math.log(1 - gap)
    peak = (eps / -x) ** (1 / (1 - eps))
    got = log_max_term(family("suleimanov", epsilon=eps), 1 - gap)
    assert got.central_index in (math.floor(peak), math.ceil(peak))
    assert got.central_index > series_mod._buffer_size()
    assert nu is None or got.central_index == nu


def test_jump_fails_fast_past_the_cap(monkeypatch, capsys):
    """At gap 5e-5 the peak of suleimanov(0.5) is below the cap and its
    tail is not; at 3e-5 the peak is past it.  Each exits 4 with the
    slide's error after one buffer and the slabs, where the slide scans
    1e8 terms."""
    series = family("suleimanov", epsilon=0.5)
    x = math.log(0.99995)
    with pytest.raises(TruncationError) as slid:
        _scan(undeclared(series), x, 1e-9)
    argv = ["eval", "--family", "suleimanov", "--epsilon", "0.5",
            "--grid-gap", "0.99995:0.5:2"]
    monkeypatch.setattr(series_mod, "_jump", lambda *a: None)
    assert main(argv) == 4
    slide_err = capsys.readouterr().err
    monkeypatch.undo()
    sizes = pass1_terms(monkeypatch)
    with pytest.raises(TruncationError) as jumped:
        _scan(series, x, 1e-9)
    assert sum(sizes) <= series_mod._buffer_size() + slab_work()
    assert str(jumped.value) == str(slid.value)
    assert jumped.value.horizon == slid.value.horizon == series_mod.HARD_CAP
    assert main(argv) == 4
    assert capsys.readouterr().err == slide_err
    sizes.clear()
    x = math.log(0.99997)
    with pytest.raises(TruncationError) as past:
        _scan(series, x, 1e-9)
    assert sum(sizes) <= series_mod._buffer_size() + slab_work()
    assert str(past.value) == (
        f"no certified horizon for 'suleimanov(0.5)' at log r={x:g} "
        f"within {series_mod.HARD_CAP} terms")


def test_a_walk_past_the_first_buffer_jumps_without_it(monkeypatch):
    """suleimanov(0.5) out to gap 2e-4: the radii whose walk starts past
    the first buffer read ``t[1]`` and no other of its terms in pass 1,
    and every radius has the bits of its own walk, ``_at``, from 512
    terms: ``(log_mu, nu, horizon)``, log F and the Rosenbloom stats."""
    series = family("suleimanov", epsilon=0.5)
    rs = [1 - gap for gap in (1e-3, 6e-4, 4e-4, 2e-4)]
    xs = [math.log(r) for r in rs]
    ranges, fill = [], series_mod._fill_terms
    monkeypatch.setattr(series_mod, "_fill_terms", lambda terms, out, x, lo:
                        ranges.append((lo, lo + out.size))
                        or fill(terms, out, x, lo))

    def point(w):  # pass 1 is done, pass 2 is to come
        below = [(lo, hi) for lo, hi in ranges if lo < 2 ** 19]
        got = _Scan(w.log_mu, w.nu, w.horizon), bits(w.log_F), below
        ranges.clear()
        return got

    got = series_mod._walk(series, xs, 1e-9, point)
    monkeypatch.undo()
    assert [below for _, _, below in got[2:]] == [[(1, 2)]] * 2
    assert got[1][0].horizon > series_mod._buffer_size()  # jumped, filled
    for r, (scan, log_F, _) in zip(rs, got):
        assert series_mod._at(series, r, 1e-9, lambda w: (
            _Scan(w.log_mu, w.nu, w.horizon), bits(w.log_F))) == (scan, log_F)
    assert repr(stats_grid(series, xs)) == repr(
        [stats_grid(series, [x])[0] for x in xs])


@pytest.mark.parametrize("gap,slab,jumps", [
    (1e-3, 4096, []),            # horizon in the first buffer
    (7e-4, 4096, [True]),        # peak in it, horizon past it
    (4e-4, 1, [False, False]),   # the jump past it fails, and again filled
])
def test_a_scan_past_the_first_buffer_falls_back_to_filling(
        gap, slab, jumps, monkeypatch):
    """A scan that starts past the first buffer where its terms do not
    rise to its end, or where the jump fails, fills it and goes on as one
    from 512 terms does, with the same bits."""
    series, x = family("suleimanov", epsilon=0.5), math.log(1 - gap)
    monkeypatch.setattr(series_mod, "_SLAB", slab)
    want, _, _ = _scan(undeclared(series), x, 1e-9)
    calls = count_calls(monkeypatch, "_jump")
    sizes = pass1_terms(monkeypatch)
    scan, _, _ = _scan(series, x, 1e-9, start=2 ** 21)
    assert scan == want and bits(scan.log_mu) == bits(want.log_mu)
    assert [c is not None for c in calls] == jumps
    assert series_mod._buffer_size() in sizes  # the buffer was filled


# ---------------------------------------------------------------------------
# The peak rule: a declared-concave window's horizon read from its peak.

@st.composite
def concave_terms(draw):
    """``(n0, t, fall)``: integer-valued terms ``t``, ``-inf`` below ``n0``
    and concave from it, which go on falling by ``fall`` per term past the
    array.  Zero slopes make ties, at the peak too, and a fall steeper
    than the tail tolerance puts the first small term right after the
    peak."""
    n0 = draw(st.integers(0, 80))
    slopes = st.sampled_from([4, 1, 0, 0, -1, -3, -9, -20, -40])
    rises = sorted(draw(st.lists(slopes, max_size=300)), reverse=True)
    fall = draw(st.sampled_from([-1, -3, -9, -20, -40]))
    rises = [r for r in rises if r >= fall]
    top = draw(st.integers(-20, 20))
    t = np.concatenate(([LOG_ZERO] * n0, top + np.cumsum([0] + rises)))
    return n0, t, float(fall)


def concave_series(n0, t, fall):
    """The declared-concave series whose coefficient logs are ``t``,
    falling by ``fall`` per term past it."""
    def log_coeff(n):
        past = np.maximum(n - (t.size - 1), 0)
        return t[np.minimum(n, t.size - 1).astype(np.intp)] + past * fall
    return PowerSeries(VectorizedSource(log_coeff), math.inf, "concave",
                       concave_from=n0)


def count_calls(monkeypatch, name):
    """A list that collects the result of every call of ``name``."""
    results, fn = [], getattr(series_mod, name)
    monkeypatch.setattr(series_mod, name, lambda *a: results.append(fn(*a))
                        or results[-1])
    return results


@settings(max_examples=400, deadline=None)
@given(terms=concave_terms(),
       cut=st.one_of(st.integers(-2, 1), st.integers(2, 10 ** 6)),
       log_tail_tol=st.sampled_from([-30.0, -10.0, -5.0, -1.0, 0.0]))
def test_peak_rule_matches_the_original_search(terms, cut, log_tail_tol):
    """On prefixes of concave terms, cut off anywhere past ``n0`` and
    often within a term of the end of the run that accepts the horizon,
    the rule gives the original search's horizon, or finds none where it
    finds none."""
    n0, t, fall = terms
    t = concave_series(n0, t, fall)._terms(0.0, t.size + 3 * TAIL_RUN)
    reach = oracle_find_horizon(t, log_tail_tol).horizon + TAIL_RUN + 1
    t = t[:reach + cut if cut < 2 else n0 + 1 + cut % (reach - n0)]
    log_mu = float(t.max())
    nu = int(np.flatnonzero(t == log_mu)[-1])
    assert _past_peak(t[nu + 1:], nu + 1, log_mu, nu, log_tail_tol) == \
        oracle_find_horizon(t, log_tail_tol)


@settings(max_examples=200, deadline=None)
@given(terms=concave_terms(), tol=_tol, start=st.integers(1, 100),
       first=st.sampled_from([1, 2, 7, 64]),
       growth=st.sampled_from([1, 2, 4, 10 ** 9]))
def test_scan_of_a_declared_window_answers_by_the_peak_rule(
        terms, tol, start, first, growth):
    """A window grown in steps down to one term, resuming the rule at each
    step: the original scan's result, and the rule decides the last step
    without the search."""
    series = concave_series(*terms)
    with pytest.MonkeyPatch.context() as mp:
        answers = count_calls(mp, "_past_peak")
        mp.setattr(series_mod, "_FIRST_WINDOW", first)
        mp.setattr(series_mod, "_GROWTH", growth)
        mp.setattr(series_mod, "HARD_CAP", terms[1].size + 1000)
        scan, _, _ = _scan(series, 0.0, tol, start)
    assert scan == oracle_scan(series, 0.0, tol)
    assert False not in answers and answers[-1] == scan


def test_peak_rule_gives_up_on_a_big_term_in_the_run():
    """A term above the threshold inside the run after the first small
    one: not unimodal, so the rule cannot tell, and the search finds the
    horizon past that term."""
    t = np.array([0.0] + [-20.0] * 10 + [-5.0] + [-20.0] * 60)
    assert _past_peak(t[1:], 1, 0.0, 0, -10.0) is False
    assert _find_horizon(t, -10.0) == oracle_find_horizon(t, -10.0) == \
        _Scan(0.0, 0, 11)


def test_peak_rule_falls_back_to_the_search(monkeypatch):
    """With a delta too large for the margin ``2 * delta < -log_tail_tol``
    the rule does not run: every step searches, with the same results."""
    series = family("suleimanov", epsilon=0.5)
    xs = [math.log(r) for r in RadialGrid.geometric_in_gap(0.9, 0.5,
                                                             6).points]
    want = walk(series, xs, 1e-9)
    rule = count_calls(monkeypatch, "_past_peak")
    searches = count_calls(monkeypatch, "_find_horizon")
    assert walk(series, xs, 1e-9) == want
    assert len(rule) >= len(xs) and searches == []
    rule.clear()
    monkeypatch.setattr(series_mod, "_DELTA", 1.0)
    assert walk(series, xs, 1e-9) == want
    assert rule == [] and len(searches) >= len(xs)


def test_a_step_past_the_peak_reads_its_terms_once(monkeypatch):
    """suleimanov(0.5) at r = 0.99 peaks at n = 2475 and grows its window
    past it for many steps before the rule finds its horizon.  On each of
    those steps the max the rule read lies before the resume point and is
    the next step's prior: no ``_last_max`` call reads the step's terms
    again, and the scan keeps the original's result."""
    series, x = family("suleimanov", epsilon=0.5), math.log(0.99)
    reads, last_max = [], series_mod._last_max

    def spy(w, lo, prior):
        reads.append((lo, lo + w.size, last_max(w, lo, prior)))
        return reads[-1][2]

    monkeypatch.setattr(series_mod, "_last_max", spy)
    scan, _, _ = _scan(series, x, 1e-9)
    assert scan == oracle_scan(series, x, 1e-9)
    past = 0
    for (lo, hi, (_, nu)), (lo2, _, _) in zip(reads, reads[1:]):
        if nu < hi - TAIL_RUN - 1:
            assert lo2 == hi - TAIL_RUN - 1
            past += 1
    assert past > 10


def test_peak_rule_decides_every_pipeline_radius(monkeypatch):
    """The pipeline benchmark's seed-0 grids, ``suleimanov(0.5)`` from gap
    0.1 down to 1e-3 on 80 points and on the x4 refinement: the rule
    decides every scan's horizon, with no search."""
    q = ((1 - 0.999) / (1 - 0.9)) ** (1 / 79)
    xs = [math.log(r) for grid in (
        RadialGrid.geometric_in_gap(0.9, q, 80),
        RadialGrid.geometric_in_gap(0.9, q ** 0.25, 317)) for r in grid.points]
    series = family("suleimanov", epsilon=0.5)
    rule = count_calls(monkeypatch, "_past_peak")
    searches = count_calls(monkeypatch, "_find_horizon")
    horizons = series_mod._walk(series, xs, 1e-9, lambda w: w.horizon)
    assert searches == [] and False not in rule
    assert [s.horizon for s in rule if s] == horizons


def test_slack_is_the_one_owner_of_the_certificate(monkeypatch):
    """With 1024-term blocks, suleimanov(0.5) at r = 0.999 takes all three
    fast paths: the peak rule, a jump and quiet blocks.  With ``_slack``
    at inf no certificate holds: the rule never runs, the jump gives up,
    no block is quiet, and every result keeps the bits of the same source
    undeclared."""
    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series, xs = family("suleimanov", epsilon=0.5), [math.log(0.999)]

    def results(s):
        return repr((walk(s, xs, 1e-9), stats_grid(s, xs)))

    want = results(undeclared(series))
    rule = count_calls(monkeypatch, "_past_peak")
    jumps = count_calls(monkeypatch, "_jump")
    quiet, real = [], series_mod._Window.quiet
    monkeypatch.setattr(series_mod._Window, "quiet", lambda w: (
        quiet.append(real(w)) or quiet[-1]))
    assert results(series) == want
    assert rule and jumps and None not in jumps
    assert quiet and all(end > 0 for end, _ in quiet)
    for calls in (rule, jumps, quiet):
        calls.clear()
    monkeypatch.setattr(series_mod, "_slack", lambda x, n, *ends: math.inf)
    assert results(series) == want
    assert rule == [] and jumps and jumps == [None] * len(jumps)
    assert quiet and quiet == [(0, 0.0)] * len(quiet)


# ---------------------------------------------------------------------------
# Monomials: the max term and the horizon in closed form.

@pytest.mark.parametrize("k", [0, 1, 7, 3_000_000])
def test_monomial_walk_matches_the_scan(k, monkeypatch):
    """``c z^k`` at any radius: nu = k, horizon k + 1 and log F = log mu =
    fl(fl(k x) + log|c|), the scan's bits, with no term computed."""
    mono = family("monomial", coeff=-2.5, degree=k)
    scanned = PowerSeries(mono._source, mono.radius, mono.label)
    xs = [math.log(r) for r in (1e-3, 0.5, 1.0, 1.7, 40.0)]
    for tol in (1e-9, 1e-15):
        want = walk(scanned, xs, tol)
        sizes = pass1_terms(monkeypatch)
        got = walk(mono, xs, tol)
        assert sizes == []
        monkeypatch.undo()
        for x, (scan, log_F), (want_scan, want_F) in zip(xs, got, want):
            assert scan == want_scan == _Scan(scan.log_mu, k, k + 1)
            assert bits(scan.log_mu) == bits(k * x + math.log(2.5))
            assert bits(log_F) == bits(want_F) == bits(scan.log_mu)


def test_monomial_at_the_cap_keeps_the_scans_outcome(monkeypatch):
    """The closed form holds while the scan's 52 terms past ``k`` fit under
    the cap; one degree more and the scan runs, and reaches the cap."""
    monkeypatch.setattr(series_mod, "HARD_CAP", 1000)
    x = math.log(0.9)
    mono = family("monomial", coeff=3, degree=948)
    scanned = PowerSeries(mono._source, mono.radius, mono.label)
    assert walk(mono, [x], 1e-9) == walk(scanned, [x], 1e-9)
    with pytest.raises(TruncationError):
        walk(family("monomial", coeff=3, degree=949), [x], 1e-9)


# ---------------------------------------------------------------------------
# Pass 2 of a jumped window: quiet blocks skipped, the first buffer reused.

def test_pass2_skips_the_quiet_blocks_at_gap_2e4(monkeypatch):
    """The boundary workload's last radius: log F reads the 9 blocks right
    of the 7 quiet ones, 4.5M of the window's 8.1M terms, with the slide's
    bits."""
    series, x = family("suleimanov", epsilon=0.5), math.log(1 - 2e-4)
    want = walk(undeclared(series), [x], 1e-9)
    sizes = pass1_terms(monkeypatch)

    def point(w):
        sizes.clear()
        log_F = w.log_F
        return log_F, sum(sizes), w.size, w.quiet()[0]

    ((log_F, work, size, end),) = series_mod._walk(series, [x], 1e-9, point)
    assert bits(log_F) == bits(want[0][1])
    assert size > 8_000_000 and end == 7 * 2 ** 19
    assert work <= 4_500_000


def test_pass2_reuses_the_first_buffer_after_a_jump(monkeypatch):
    """A jumped window of two blocks: the scan's first buffer is still in
    the term buffer, so log F computes only the second block; a second
    read computes both, as the first was overwritten.  Both sums have the
    slide's bits."""
    series, x = family("suleimanov", epsilon=0.5), math.log(1 - 7e-4)
    ((_, want),) = walk(undeclared(series), [x], 1e-9)
    sizes = pass1_terms(monkeypatch)

    def point(w):
        sizes.clear()
        log_F = w.log_F
        first = sum(sizes)
        again = w.log_sum_exp(m=w.log_mu)
        return w.size, w.quiet()[0], log_F, first, again, sum(sizes) - first

    ((size, end, log_F, first, again, second),) = series_mod._walk(
        series, [x], 1e-9, point)
    assert 2 ** 19 < size <= 2 ** 20 and end == 0  # block 0 is not quiet
    assert first == size - 2 ** 19
    assert second == size
    assert bits(log_F) == bits(again) == bits(want)


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.sampled_from([LOG_ZERO, -7.0, -1.5, 0.0, 2.0]),
                  max_size=40),
       lo=st.integers(0, 10**6),
       prior=st.sampled_from([(LOG_ZERO, -1), (-1.5, 3), (0.0, 9),
                              (2.0, 0), (LOG_ZERO, 4)]))
def test_last_max_matches_the_two_pass_form(w, lo, prior):
    """The first index of the max and a search for ties after it give the
    max and then the last index equal to it, with ties and ``-inf``."""
    def two_pass(w, lo, prior):
        if w.size == 0:
            return prior
        m = float(w.max())
        if m < prior[0]:
            return prior
        return m, lo + w.size - 1 - int(np.argmax(w[::-1] == m))

    w = np.array(w, dtype=float)
    assert series_mod._last_max(w, lo, prior) == two_pass(w, lo, prior)


# ---------------------------------------------------------------------------
# Pass 2 in place: a sum writes the masses over the window's terms, and every
# read after it computes them again, with the scan's bits.

def in_buffer():
    """suleimanov(0.5) at r = 0.999: a window of 431,212 terms (484,124
    for the moment sums) that never slides."""
    return family("suleimanov", epsilon=0.5), math.log(0.999)


def test_reads_after_a_sum_keep_their_bits():
    """log F overwrites the in-buffer window with its masses; the blocks
    read after it and two more sums, of the window and of a range of
    fewer than ``_FSUM_CUTOFF`` terms, have the bits of the terms built at
    once (``PowerSeries._terms``)."""
    from wvlab.logdomain import log_sum_exp

    series, x = in_buffer()

    def point(w):
        lo, hi = w.nu - 1000, w.nu + 1000
        log_F = w.log_F
        terms = np.concatenate([t.copy() for _, t in w.blocks()])
        return (log_F, terms, w.log_sum_exp(), w.log_sum_exp(),
                w.log_sum_exp(lo, hi), w.log_sum_exp(lo, hi), lo, hi)

    ((log_F, terms, once, twice, part, again, lo, hi),) = series_mod._walk(
        series, [x], 1e-9, point)
    assert terms.size == 431_212 < series_mod._buffer_size()
    t = series._terms(x, terms.size)
    assert np.array_equal(bits(terms), bits(t))
    m = float(t.max())
    want = m + math.log(_sum_exp(t, m, np.empty(t.size)))
    assert bits(log_F) == bits(once) == bits(twice) == bits(want)
    assert bits(part) == bits(again) == bits(log_sum_exp(t[lo:hi]))


def test_distribution_after_the_sweep_keeps_its_bits():
    """``distribution`` reads the window after the moment sweep has
    written its masses: its log masses are the terms of a fresh walk less
    ``g``, bit for bit, in the buffer and at ``r = 0``, whose term
    ``log|a_0|`` no fill can compute (``0 * log 0``)."""
    from wvlab.rosenbloom import distribution, stats

    series, x = in_buffer()
    d, st = distribution(series, x), stats(series, x)
    assert d.log_mass.size < series_mod._buffer_size()
    t = series._terms(x, d.log_mass.size)
    assert bits(d.log_F) == bits(st.g)
    assert np.array_equal(bits(d.log_mass), bits(t - st.g))
    series = PowerSeries.from_log_coeffs([1.5, 0.25, -2.0])
    d = distribution(series, -math.inf)
    assert (d.log_F, d.log_mass.tolist()) == (1.5, [0.0])


def test_lemma_window_sum_after_the_sweep_keeps_its_bits():
    """The lemma's window sum recomputes its range after the sweep, with
    the bits of a fresh walk that sums the scan's buffer itself."""
    from wvlab.rosenbloom import _MOMENT_SCALE, _window_sum_from, stats, \
        window_sum

    series, x = in_buffer()
    st = stats(series, x)

    def fresh(w):
        assert w._t is not None  # no sum has written over it yet
        return _window_sum_from(w, st, 2.0)

    (want,) = series_mod._walk(series, [x], 1e-9, fresh, _MOMENT_SCALE)
    assert bits(window_sum(series, x, 2.0)) == bits(want)


def test_sampled_max_reads_the_scans_terms():
    """``max_modulus_sampled`` reads the in-buffer window with the bits of
    the terms built at once, and at ``r = 0`` gives ``log|a_0|``."""
    from wvlab.series import max_modulus_sampled

    series, x = in_buffer()
    samples = 3
    got = max_modulus_sampled(series, math.exp(x), samples)
    size = truncation_horizon(series, math.exp(x), 1e-9) + 1
    t = series._terms(x, size)
    m = float(t.max())
    n, w = np.arange(size, dtype=float), np.exp(t - m)
    sums = np.zeros(samples, dtype=complex)
    for k in range(samples):
        sums[k] += np.sum(w * np.exp(1j * (n * (2.0 * math.pi * k / samples)
                                           + 0.0)))
    assert bits(got) == bits(m + math.log(float(np.max(np.abs(sums)))))
    series = PowerSeries.from_log_coeffs([1.5, 0.25, -2.0])
    assert max_modulus_sampled(series, 0.0, samples) == 1.5


def test_a_walk_holds_one_window_buffer():
    """Pass 2 forms the masses over the terms, and a walk makes its one
    term buffer once, so a walk holds one buffer, not two: the peak stays
    below the first block's coefficients (``_FirstBlock``, at most one
    buffer's worth), one buffer, the exact sum's scratch and 1 MB of
    slack, which covers a fill's index array of ``_FILL_TERMS`` values
    (0.5 MB).  At ``r = 0.999`` the window of 431,212 terms never slides;
    at ``r = 0.9999`` a window of 30M terms jumps and is read back block by
    block.  A second buffer-sized array (4.2 MB) breaks it."""
    from wvlab.logdomain import _PIECE

    series = family("suleimanov", epsilon=0.5)
    buffer = series_mod._buffer_size() * 8
    for r, horizon in ((0.999, 431_211), (0.9999, 30_206_863)):
        tracemalloc.start()
        try:
            log_positive_value(series, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truncation_horizon(series, r, 1e-9) == horizon
        assert peak < 2 * buffer + _PIECE * 8 + 2 ** 20, r
