import math

import numpy as np
import pytest

from wvlab import (
    DomainError,
    ValidationError,
    distribution,
    family,
    stats,
    stats_grid,
    verify_pointwise_lemma,
    window_sum,
)


def poisson_pmf(lam, n_max):
    n = np.arange(n_max + 1, dtype=float)
    logs = n * math.log(lam) - lam - np.array(
        [math.lgamma(k + 1) for k in range(n_max + 1)])
    return np.exp(logs)


def test_distribution_exp_is_poisson(exp_series):
    # oracle: explicit pmf comparison up to n = 60; the truncation horizon
    # may stop earlier, where the remaining oracle mass is already dust
    d = distribution(exp_series, math.log(10))
    want = poisson_pmf(10.0, 60)
    overlap = min(d.log_mass.size, 61)
    got = np.exp(d.log_mass[:overlap])
    assert got == pytest.approx(want[:overlap], rel=1e-9)
    assert float(np.sum(want[overlap:])) < 1e-12
    assert np.all(d.log_mass <= 1e-15)
    assert math.fsum(np.exp(d.log_mass)) == pytest.approx(1.0, abs=1e-12)


def test_distribution_geometric(geometric_series):
    d = distribution(geometric_series, math.log(0.5))
    want = [0.5 ** (n + 1) for n in range(30)]
    assert np.exp(d.log_mass[:30]) == pytest.approx(want, rel=1e-9)


def test_distribution_monomial_unit_mass():
    mono = family("monomial", coeff=2.5, degree=4)
    d = distribution(mono, 0.7)
    p = np.exp(d.log_mass)
    assert p[4] == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-15)


def test_stats_exp_poisson_identity(exp_series):
    for x in (-1.0, 0.0, 1.0, 2.5):
        st = stats(exp_series, x)
        lam = math.exp(x)
        assert st.g == pytest.approx(lam, rel=1e-11)
        assert st.g1 == pytest.approx(lam, rel=1e-11)
        assert st.g2 == pytest.approx(lam, rel=1e-11)


def test_stats_geometric_oracle(geometric_series):
    # brute-force mass sums to n = 200
    r = 0.5
    n = np.arange(201, dtype=float)
    mass = (1 - r) * r ** n
    g1_oracle = float(np.dot(n, mass))
    g2_oracle = float(np.dot((n - g1_oracle) ** 2, mass))
    st = stats(geometric_series, math.log(r))
    assert st.g == pytest.approx(math.log(2), abs=1e-12)
    assert st.g1 == pytest.approx(g1_oracle, rel=1e-11)
    assert st.g2 == pytest.approx(g2_oracle, rel=1e-11)
    # closed forms: mean r/(1-r), variance r/(1-r)^2
    assert st.g1 == pytest.approx(1.0, rel=1e-9)
    assert st.g2 == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("rho,gaps", [
    (1, [1e-1, 1e-2, 1e-3]),      # the recurrence, to 1.5M terms
    (2, [1e-1, 3e-2, 1e-2]),      # the recurrence, to 2.4M terms
    (0.5, [1e-1, 1e-2, 1e-3]),    # the convolution, to 98k terms
])
def test_stats_kovari_closed_form_near_the_boundary(rho, gaps):
    """g = log M = (1-r)^-rho for exp((1-z)^-rho), so g1 = rho r
    (1-r)^-(rho+1) and g2 = g1 + rho (rho+1) r^2 (1-r)^-(rho+2), each to a
    relative 1e-12, 30 times the largest error seen (3.2e-14 in g2)."""
    kov = family("kovari", rho=rho)
    xs = [math.log1p(-gap) for gap in gaps]
    for x, st in zip(xs, stats_grid(kov, xs)):
        r, gap = math.exp(x), -math.expm1(x)  # 1 - r without cancelling
        g1 = rho * r * gap ** -(rho + 1)
        g2 = g1 + rho * (rho + 1) * r * r * gap ** -(rho + 2)
        assert st.g == pytest.approx(gap ** -rho, rel=1e-12), gap
        assert st.g1 == pytest.approx(g1, rel=1e-12), gap
        assert st.g2 == pytest.approx(g2, rel=1e-12), gap


def test_stats_monomial_zero_variance_flag():
    mono = family("monomial", coeff=3.0, degree=2)
    st = stats(mono, 0.5)
    assert st.g == pytest.approx(math.log(3) + 2 * 0.5, rel=1e-12)
    assert st.g1 == pytest.approx(2.0, abs=1e-12)
    assert st.g2 == 0.0
    assert st.zero_variance


def test_window_sum_exp_oracle(exp_series):
    # window for c=2 at x=log 10 covers n in {4..16}; oracle by pmf sum
    x = math.log(10)
    got = window_sum(exp_series, x, 2.0)
    pmf = poisson_pmf(10.0, 60)
    want_ratio = float(np.sum(pmf[4:17]))
    st = stats(exp_series, x)
    assert math.exp(got - st.g) == pytest.approx(want_ratio, rel=1e-9)
    assert want_ratio >= 1 - 1 / 4


def test_window_sum_geometric_oracle(geometric_series):
    # window {0..3}: ratio 1 - 0.5^4
    x = math.log(0.5)
    got = window_sum(geometric_series, x, 2.0)
    st = stats(geometric_series, x)
    assert math.exp(got - st.g) == pytest.approx(1 - 0.5 ** 4, rel=1e-9)


def test_window_sum_large_c_covers_everything(exp_series):
    x = math.log(10)
    st = stats(exp_series, x)
    got = window_sum(exp_series, x, 40.0)
    assert math.exp(got - st.g) == pytest.approx(1.0, rel=1e-12)


def test_window_refuses_monomial():
    mono = family("monomial", coeff=1.0, degree=3)
    with pytest.raises(ValidationError):
        window_sum(mono, 0.2, 2.0)


def test_verify_chain_exp(exp_series):
    c = math.sqrt(3)
    reports = verify_pointwise_lemma(exp_series, [math.log(10)], c)
    rep = reports[0]
    assert rep.holds
    assert rep.margin_chebyshev >= -1e-9
    assert rep.margin_count >= -1e-9
    assert rep.margin_overall >= -1e-9
    # the pointwise constant stays below the asymptotic one plus correction
    correction = 1 / ((1 - c ** -2) * math.sqrt(rep.g2))
    assert rep.c_constant <= 3 * math.sqrt(3) + correction + 1e-12


def test_verify_chain_geometric_near_boundary(geometric_series):
    reports = verify_pointwise_lemma(
        geometric_series, [math.log(0.99)], 2.0)
    assert reports[0].holds


def test_verify_chain_refuses_monomial():
    mono = family("monomial", coeff=1.0, degree=3)
    with pytest.raises(ValidationError):
        verify_pointwise_lemma(mono, [0.1], 2.0)



@pytest.mark.parametrize("family_id,params,radii,block", [
    ("exp", {}, (2.0, 10.0, 300.0, 3e3), None),
    ("geometric", {}, (0.5, 0.9, 0.99, 0.999), None),
    ("suleimanov", {"epsilon": 0.5}, (0.5, 0.9, 0.99), None),
    ("suleimanov", {"epsilon": 0.5}, (0.99, 0.999), 1024),
    ("exp", {}, (3e3, 1e4), 1024),
])
def test_margin_overall_closes_the_chain(family_id, params, radii, block,
                                         monkeypatch):
    """``margin_overall``, the slack of ``F <= C mu sqrt(g2)`` with the
    pointwise constant ``C``, is the sum of the two links' slacks up to
    rounding (``log C = log count - log(1 - c^-2) - log(g2) / 2``), and at
    least -2e-9 wherever the chain holds; with 1024-term blocks the moment
    windows span several blocks."""
    from wvlab import series as series_mod

    if block is not None:
        monkeypatch.setattr(series_mod, "_BLOCK_TERMS", block)
    series, xs = family(family_id, **params), [math.log(r) for r in radii]
    if block is not None:
        sizes = series_mod._walk(series, xs, 1e-9 * 1e-6, lambda w: w.size)
        assert min(sizes) > block + 51
    for c in (math.sqrt(3), 2.0):
        for rep in verify_pointwise_lemma(series, xs, c):
            scale = max(1.0, abs(rep.g), abs(rep.log_mu), abs(rep.log_window))
            assert abs(rep.margin_overall - (rep.margin_chebyshev
                                             + rep.margin_count)) \
                <= 16 * 2.0 ** -52 * scale
            assert rep.holds and rep.margin_overall >= -2e-9


@pytest.mark.parametrize("family_id,params,x_grid", [
    ("exp", {}, np.linspace(-2, 4, 12)),
    ("geometric", {}, np.log(np.linspace(0.2, 0.85, 12))),
    ("kovari", {"rho": 1}, np.log(np.linspace(0.3, 0.8, 12))),
    ("suleimanov", {"epsilon": 0.5}, np.log(np.linspace(0.3, 0.8, 12))),
])
def test_derivative_consistency(family_id, params, x_grid):
    # g1 against a central difference of g, g2 against one of g1; the step
    # of 1e-4 limits how close to the boundary the comparison stays valid
    series = family(family_id, **params)
    h = 1e-4
    for x in x_grid:
        st = stats(series, float(x))
        g_plus = stats(series, float(x) + h)
        g_minus = stats(series, float(x) - h)
        fd_g1 = (g_plus.g - g_minus.g) / (2 * h)
        fd_g2 = (g_plus.g1 - g_minus.g1) / (2 * h)
        assert fd_g1 == pytest.approx(st.g1, rel=1e-6)
        assert fd_g2 == pytest.approx(st.g2, rel=1e-6)


def test_mean_monotone_in_x(kovari1_series):
    xs = np.log(np.linspace(0.2, 0.95, 20))
    g1s = [stats(kovari1_series, float(x)).g1 for x in xs]
    assert all(b >= a for a, b in zip(g1s, g1s[1:]))
    g2s = [stats(kovari1_series, float(x)).g2 for x in xs]
    assert all(v > 0 for v in g2s)


def test_stats_mean_within_horizon(suleimanov_half_series):
    from wvlab import truncation_horizon

    st = stats(suleimanov_half_series, math.log(0.9))
    assert 0 <= st.g1 <= truncation_horizon(suleimanov_half_series, 0.9, 1e-15)


@pytest.mark.parametrize("tol", [1e-320, 5e-324, -1.0])
def test_moment_tolerance_underflow_names_the_given_tolerance(exp_series,
                                                              tol):
    # the moment scans run at tol*1e-6, which is 0 (or < 0) here; the
    # message must give the tolerance the caller passed, not tol*1e-6
    for call in (lambda: stats(exp_series, 1.0, tol),
                 lambda: verify_pointwise_lemma(exp_series, [1.0], 2.0, tol)):
        with pytest.raises(ValidationError, match=f"got {tol!r}$"):
            call()


def test_r_zero_is_the_point_mass_at_zero(geometric_series,
                                          suleimanov_half_series):
    # x = -inf is r = 0: the single-term window [log a_0]
    d = distribution(geometric_series, -math.inf)
    assert (d.log_F, d.log_mass.tolist()) == (0.0, [0.0])
    st = stats(geometric_series, -math.inf)
    assert (st.g, st.g1, st.g2) == (0.0, 0.0, 0.0)
    with pytest.raises(ValidationError, match="positive variance"):
        window_sum(geometric_series, -math.inf, 2.0)
    with pytest.raises(ValidationError, match="zero variance at x=-inf"):
        verify_pointwise_lemma(geometric_series, [-math.inf, -1.0], 2.0)
    # a_0 = 0: F(0) = 0 and the masses are undefined, never nan
    for call in (distribution, stats):
        with pytest.raises(DomainError, match="F = 0 at x=-inf"):
            call(suleimanov_half_series, -math.inf)


def _moment_errors(series_of, gap, monkeypatch):
    """Relative errors of (g1, g2) at ``x = log(1 - gap)``, as one block
    and in 1024-term blocks, against 40-digit sums of the same term logs;
    the window must slide."""
    import mpmath

    from wvlab import series as series_mod

    x = math.log1p(-gap)
    one = stats(series_of(), x)
    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series = series_of()
    blocks = stats(series, x)
    assert blocks.g == one.g
    horizon = series_mod._at(series, math.exp(x), 1e-9 * 1e-6,
                             lambda window: window.horizon)
    assert horizon + 1 > 1024 + 51  # the window slid
    t = series._terms(x, horizon + 1)
    with mpmath.workdps(40):
        w = [mpmath.exp(mpmath.mpf(float(v))) for v in t]
        F = mpmath.fsum(w)
        g1 = mpmath.fsum(n * v for n, v in enumerate(w)) / F
        g2 = mpmath.fsum((n - g1) ** 2 * v for n, v in enumerate(w)) / F
        return [tuple(float(abs(got - want) / want)
                      for got, want in ((st.g1, g1), (st.g2, g2)))
                for st in (one, blocks)]


@pytest.mark.parametrize("gap", [0.02, 0.01, 0.005])
def test_block_moments_are_no_less_accurate(gap, monkeypatch):
    """A window that slides is swept per block, and the blocks' masses,
    means and centred second moments are merged by the pairwise variance
    update; one block is the whole window.  Held to 40-digit sums of the
    same term logs (the window has 4,700 to 35,000 terms, blocks 1024),
    both ways give g1 and g2 within 1e-14, and g1 within 1e-15 at the two
    longer windows."""
    for e1, e2 in _moment_errors(
            lambda: family("suleimanov", epsilon=0.5), gap, monkeypatch):
        assert e1 < 1e-14 and e2 < 1e-14
        if gap <= 0.01:
            assert e1 < 1e-15


def test_block_moments_merge_a_non_log_concave_family(monkeypatch):
    """The coefficients of ``log(2+(-1)**n)+sqrt(n)`` alternate between two
    rows, so the masses are not unimodal; the merged blocks (12,455
    terms) keep the moments within 1e-14 of the 40-digit sums."""
    for e1, e2 in _moment_errors(
            lambda: family("formula", formula="log(2+(-1)**n)+sqrt(n)",
                           radius=1), 0.01, monkeypatch):
        assert e1 < 1e-14 and e2 < 1e-14


def _count_block_reads(monkeypatch):
    """Patch ``_Window.blocks`` to record the start of every block that
    pass 2 reads; returns the list it fills."""
    from wvlab import series as series_mod

    starts = []
    blocks = series_mod._Window.blocks

    def counted(window, *args):
        for lo, t in blocks(window, *args):
            starts.append(lo)
            yield lo, t

    monkeypatch.setattr(series_mod._Window, "blocks", counted)
    return starts


def test_stats_reads_each_block_once(monkeypatch):
    """Pass 2 of a slid stats point is one sweep: each block of the window
    is recomputed and read once, for g, g1 and g2 together."""
    from wvlab import series as series_mod

    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series, x = family("suleimanov", epsilon=0.5), math.log1p(-0.01)
    size = series_mod._at(series, math.exp(x), 1e-9 * 1e-6,
                          lambda window: window.size)
    assert size > 1024 + 51  # the window slid
    starts = _count_block_reads(monkeypatch)
    stats(series, x)
    assert starts == list(range(0, size, 1024))


def test_lemma_reads_the_concentration_window_once(monkeypatch):
    """A lemma point sweeps the window once, then reads the blocks of the
    concentration window once: its max is the max term, as it holds the
    central index."""
    from wvlab import series as series_mod

    monkeypatch.setattr(series_mod, "_BLOCK_TERMS", 1024)
    series, x, c = family("suleimanov", epsilon=0.5), math.log1p(-0.01), 2.0
    size = series_mod._at(series, math.exp(x), 1e-9 * 1e-6,
                          lambda window: window.size)
    starts = _count_block_reads(monkeypatch)
    (rep,) = verify_pointwise_lemma(series, [x], c)
    half = c * math.sqrt(rep.g2)
    lo = int(math.floor(rep.g1 - half)) + 1
    hi = int(math.ceil(rep.g1 + half))
    assert hi - lo > 1024 + 51  # the concentration window is read in blocks
    assert starts == list(range(0, size, 1024)) + list(range(lo, hi, 1024))


# ---------------------------------------------------------------------------
# Pass 2 of a declared-concave family skips its quiet blocks, bit for bit.

def _undeclared(series):
    """The same source without the concavity declaration: pass 2 then
    reads every block."""
    from wvlab import PowerSeries

    return PowerSeries(series._source, series.radius, series.label)


def _pass2(series, xs):
    """log F, stats and lemma reports at each x, and how many leading terms
    the log F and moment windows may skip (``_Window.quiet``)."""
    from wvlab import series as series_mod
    from wvlab.rosenbloom import _walk_masses

    ends = []
    log_F = series_mod._walk(series, xs, 1e-9, lambda w: (
        ends.append(w.quiet()[0]) or w.log_F))
    sts = _walk_masses(series, xs, 1e-9, lambda w, st: (
        ends.append(w.quiet()[0]) or st))
    reps = verify_pointwise_lemma(series, xs, 2.0)
    return repr((log_F, sts, reps)), ends


SKIPS = [  # 2^19-term blocks of the log F and moment windows
    ("suleimanov", {"epsilon": 0.25}, (0.99998,)),               # 5, 7
    ("suleimanov", {"epsilon": 0.5}, (0.9993, 0.9995, 0.9998)),  # 2 to 17
    ("suleimanov", {"epsilon": 0.75}, (0.975, 0.98)),            # 2, 4
    ("exp", {}, (6e5, 4e6)),                                     # 2, 8
    ("geometric", {}, (1 - 5e-6,)),                              # 10, 15
]
SMALL_SKIPS = [  # with 1024-term blocks: windows of 2 to about 1,000
    ("suleimanov", {"epsilon": 0.25}, (0.9993, 0.9997, 0.9999)),
    ("suleimanov", {"epsilon": 0.5}, (0.99, 0.997, 0.999)),
    ("suleimanov", {"epsilon": 0.75}, (0.95, 0.96, 0.97)),
    ("exp", {}, (3e3, 1e4, 6e4)),
    ("geometric", {}, (0.999, 0.9995, 0.9999)),
]


@pytest.mark.parametrize("block", [None, 1024], ids=["2^19", "1024"])
def test_quiet_blocks_keep_every_bit(block, monkeypatch):
    """log F, stats (g, g1, g2) and lemma (with the window sum) of each
    declared family are those of the same source undeclared, which reads
    every block, bit for bit; the windows whose peak lies far from n = 0
    skip blocks."""
    from wvlab import series as series_mod

    if block is not None:
        monkeypatch.setattr(series_mod, "_BLOCK_TERMS", block)
    skipped = 0
    for family_id, params, rs in SKIPS if block is None else SMALL_SKIPS:
        series = family(family_id, **params)
        xs = [math.log(r) for r in rs]
        got, ends = _pass2(series, xs)
        want, none = _pass2(_undeclared(series), xs)
        assert got == want
        assert not any(none)
        skipped += sum(e > 0 for e in ends)
    # suleimanov(0.5) at gap 2e-4, suleimanov(0.75) and exp; the peaks of
    # suleimanov(0.25) and geometric lie too far left for a quiet block
    assert skipped >= (10 if block is None else 16)


def test_a_failed_certificate_reads_every_block(monkeypatch):
    """A bound too large for any certificate: log F and the moments sum
    every term of their windows, the quiet blocks too, and keep their
    bits."""
    from wvlab import rosenbloom
    from wvlab import series as series_mod

    series, xs = family("suleimanov", epsilon=0.5), [math.log(1 - 2e-4)]
    want, ends = _pass2(series, xs)
    assert all(e > 0 for e in ends)
    quiet = series_mod._Window.quiet
    monkeypatch.setattr(series_mod._Window, "quiet", lambda w: (
        quiet(w)[0], quiet(w)[1] + 1e30))
    summed, block_sum = [], series_mod._sum_exp
    monkeypatch.setattr(series_mod, "_sum_exp", lambda t, m, out: (
        summed.append(t.size) or block_sum(t, m, out)))
    (size,) = series_mod._walk(series, xs, 1e-9, lambda w: (
        w.log_F, w.size)[1])
    (moment_size,) = rosenbloom._walk_masses(series, xs, 1e-9,
                                             lambda w, st: w.size)
    assert sum(summed) == size + moment_size
    assert _pass2(series, xs)[0] == want


def test_an_empty_concentration_window_is_an_invariant_violation():
    """No integer within ``c*sqrt(g2)`` of ``g1``: Chebyshev puts mass
    there, so the moments are wrong, and the error exits 3."""
    from types import SimpleNamespace

    from wvlab.errors import InvariantViolation
    from wvlab.rosenbloom import RosenbloomStats, _window_sum_from

    window = SimpleNamespace(x=0.0, size=10)
    st = RosenbloomStats(g=0.0, g1=3.5, g2=1e-30)
    with pytest.raises(InvariantViolation, match="empty concentration"):
        _window_sum_from(window, st, 2.0)


@pytest.mark.parametrize("gap", [1e-2, 1e-3, 2e-4])
def test_hayman_log_M_minus_log_mu(gap):
    """Hayman (1956): for an admissible function, ``log M(r) - log mu(r) -
    (1/2) log(2 pi g2(r)) -> 0`` as ``r -> 1``.  On suleimanov(0.5) the
    difference is -0.0149, -0.0015 and -0.0003 at gaps 1e-2, 1e-3 and 2e-4,
    within twice the gap; at 2e-4 both windows skip quiet blocks."""
    from wvlab import series as series_mod
    from wvlab.rosenbloom import _walk_masses

    series, x = family("suleimanov", epsilon=0.5), math.log(1 - gap)
    ((log_M, log_mu, end),) = series_mod._walk(series, [x], 1e-9, lambda w: (
        w.log_F, w.log_mu, w.quiet()[0]))
    ((st, moment_end),) = _walk_masses(series, [x], 1e-9, lambda w, st: (
        st, w.quiet()[0]))
    assert st == stats(series, x)
    diff = log_M - log_mu - 0.5 * math.log(2 * math.pi * st.g2)
    assert abs(diff) <= 2 * gap
    assert (end > 0 and moment_end > 0) == (gap == 2e-4)
