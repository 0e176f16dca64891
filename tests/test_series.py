import math
import sys

import numpy as np
import pytest

from wvlab import (
    DegenerateSeriesError,
    DomainError,
    PowerSeries,
    ValidationError,
    family,
    log_max_term,
    log_positive_value,
    max_modulus_sampled,
    truncation_horizon,
)
from wvlab import families as families_mod
from wvlab.series import TAIL_RUN


def brute_max_term(series, r, n_max=100):
    """Independent argmax over an explicit index range, ties upward."""
    terms = [series.log_coeff(n) + n * math.log(r) if r > 0 else
             (series.log_coeff(0) if n == 0 else -math.inf)
             for n in range(n_max + 1)]
    best = max(terms)
    nu = max(i for i, t in enumerate(terms) if t == best)
    return best, nu


def test_log_coeff_exp(exp_series):
    assert exp_series.log_coeff(3) == pytest.approx(-math.log(6), abs=1e-12)
    assert exp_series.log_coeff(0) == 0.0


def test_log_coeff_monomial_zero_entry():
    mono = family("monomial", coeff=3, degree=5)
    assert mono.log_coeff(4) == -math.inf
    assert mono.log_coeff(5) == pytest.approx(math.log(3))
    assert mono.log_coeff(17) == -math.inf


def test_max_term_exp_tie_breaks_upward(exp_series):
    # terms at r=2 tie at n=1 and n=2; the larger index wins
    got = log_max_term(exp_series, 2.0)
    want_log, want_nu = brute_max_term(exp_series, 2.0)
    assert got.log_mu == want_log
    assert got.central_index == want_nu == 2
    assert got.log_mu == pytest.approx(math.log(2), abs=1e-12)


def test_max_term_geometric(geometric_series):
    got = log_max_term(geometric_series, 0.5)
    assert (got.log_mu, got.central_index) == (0.0, 0)


def test_max_term_monomial():
    mono = family("monomial", coeff=3, degree=5)
    got = log_max_term(mono, 2.0)
    assert got.central_index == 5
    assert got.log_mu == pytest.approx(math.log(96), abs=1e-12)


def test_max_term_r_zero(exp_series):
    got = log_max_term(exp_series, 0.0)
    assert (got.log_mu, got.central_index) == (0.0, 0)


@pytest.mark.parametrize("fid,params,horizon", [
    ("exp", {}, 1),
    ("geometric", {}, 1),
    ("kovari", {"rho": 1}, 1),
    ("suleimanov", {"epsilon": 0.5}, 1),  # a_0 = 0
    ("monomial", {"coeff": 3, "degree": 5}, 6),
    ("formula", {"formula": "-n*log(2)", "radius": 2}, 1),  # log a_0 = -0.0
])
def test_r_zero_is_the_single_term_window(fid, params, horizon):
    # at r = 0 only a_0 is left; the sign of a zero log survives too
    series = family(fid, **params)
    a0 = series.log_coeff(0)
    mt = log_max_term(series, 0.0)
    assert mt.central_index == 0
    for got in (mt.log_mu, log_positive_value(series, 0.0),
                max_modulus_sampled(series, 0.0, samples=5, phases=[1.0])):
        assert repr(got) == repr(a0)
    assert truncation_horizon(series, 0.0, 1e-9) == horizon


def test_max_term_domain_errors(geometric_series):
    with pytest.raises(DomainError):
        log_max_term(geometric_series, 1.0)
    with pytest.raises(ValidationError):
        log_max_term(geometric_series, -0.5)


@pytest.mark.parametrize("name", ["monomial_degree", "concave_from"])
@pytest.mark.parametrize("value", [-1, 1.5, 2.0, "1", True])
def test_declarations_must_be_ints_from_0(name, value):
    """A declaration is None or an int >= 0; anything else is refused when
    the series is made, before a scan reads it."""
    source = family("geometric")._source
    with pytest.raises(ValidationError, match=f"{name} must be an int >= 0"):
        PowerSeries(source, 1.0, **{name: value})


def test_all_zero_series_degenerate():
    dead = PowerSeries.from_log_coeffs([-math.inf, -math.inf], radius=2.0)
    with pytest.raises(DegenerateSeriesError):
        log_max_term(dead, 0.5)
    with pytest.raises(DegenerateSeriesError):
        log_positive_value(dead, 0.5)


def test_positive_value_examples(exp_series, geometric_series,
                                 kovari1_series):
    assert log_positive_value(exp_series, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert log_positive_value(geometric_series, 0.5) == pytest.approx(
        math.log(2), abs=1e-9)
    assert log_positive_value(kovari1_series, 0.5) == pytest.approx(
        2.0, abs=2e-9)


def test_positive_value_truncation_soundness(exp_series, geometric_series):
    # summing twice as far changes nothing at the requested tolerance
    for series, r in ((exp_series, 3.0), (geometric_series, 0.9)):
        tol = 1e-9
        val = log_positive_value(series, r, tol)
        horizon = truncation_horizon(series, r, tol)
        n = np.arange(2 * horizon + 1, dtype=float)
        doubled = series.log_coeffs(2 * horizon + 1) + n * math.log(r)
        m = doubled.max()
        ref = m + math.log(float(np.sum(np.exp(doubled - m))))
        assert abs(val - ref) < tol


def test_truncation_horizon_contract(geometric_series):
    # geometric at tol 1e-18: the first sub-threshold index is 66, so the
    # smallest accepted horizon is 65
    tol = 1e-18
    n = truncation_horizon(geometric_series, 0.5, tol)
    assert n == 65
    mt = log_max_term(geometric_series, 0.5)
    threshold = mt.log_mu + math.log(tol / TAIL_RUN)
    terms = [geometric_series.log_coeff(k) + k * math.log(0.5)
             for k in range(n + 1, n + TAIL_RUN + 1)]
    assert all(t < threshold for t in terms)
    assert n > mt.central_index


def test_truncation_horizon_exp(exp_series):
    n = truncation_horizon(exp_series, 1.0, 1e-18)
    mt = log_max_term(exp_series, 1.0)
    assert n > mt.central_index >= 1
    threshold = mt.log_mu + math.log(1e-18 / TAIL_RUN)
    assert exp_series.log_coeff(n + 1) + (n + 1) * 0.0 < threshold


def test_truncation_horizon_monomial():
    # all terms past the degree vanish; the window starts right after it
    mono = family("monomial", coeff=3, degree=5)
    assert truncation_horizon(mono, 2.0, 1e-9) == 6


def test_max_modulus_nonnegative_matches_positive_value(exp_series):
    got = max_modulus_sampled(exp_series, 1.0, samples=64)
    assert got == pytest.approx(log_positive_value(exp_series, 1.0), abs=1e-9)


def test_max_modulus_identity_series():
    z = PowerSeries.from_log_coeffs([-math.inf, 0.0], radius=math.inf)
    assert max_modulus_sampled(z, 2.0, samples=7) == pytest.approx(
        math.log(2), abs=1e-12)


def test_max_modulus_with_phases():
    # f(z) = 1 - z: |f| on |z| = 0.5 peaks at z = -0.5 with value 1.5
    f = PowerSeries.from_log_coeffs([0.0, 0.0], radius=math.inf)
    got = max_modulus_sampled(f, 0.5, samples=256, phases=[0.0, math.pi])
    assert got == pytest.approx(math.log(1.5), abs=1e-12)


def test_max_modulus_is_lower_bound_for_sparse_sampling():
    f = PowerSeries.from_log_coeffs([0.0, 0.0], radius=math.inf)
    few = max_modulus_sampled(f, 0.5, samples=3, phases=[0.0, math.pi])
    assert few <= math.log(1.5) + 1e-12


@pytest.mark.parametrize("family_id,params,r_grid", [
    ("exp", {}, [0.5, 1.0, 2.0, 5.0, 20.0]),
    ("geometric", {}, [0.1, 0.3, 0.5, 0.7, 0.9, 0.97]),
    ("kovari", {"rho": 1}, [0.2, 0.4, 0.6, 0.8, 0.9]),
    ("suleimanov", {"epsilon": 0.5}, [0.2, 0.4, 0.6, 0.8, 0.9]),
])
def test_cauchy_estimate_and_monotonicity(family_id, params, r_grid):
    series = family(family_id, **params)
    mus = []
    values = []
    nus = []
    for r in r_grid:
        mt = log_max_term(series, r)
        val = log_positive_value(series, r)
        assert mt.log_mu <= val + 1e-12
        mus.append(mt.log_mu)
        nus.append(mt.central_index)
        values.append(val)
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(b >= a for a, b in zip(nus, nus[1:]))


def test_coefficient_queries_are_deterministic(kovari1_series):
    first = [kovari1_series.log_coeff(n) for n in (0, 3, 10, 100)]
    kovari1_series.log_coeffs(5000)  # force an extension in between
    second = [kovari1_series.log_coeff(n) for n in (0, 3, 10, 100)]
    assert first == second


def test_truncation_cap_reports_failure(geometric_series, monkeypatch):
    # a cap too small to certify the tail must fail loudly, not return junk
    from wvlab import TruncationError, series as series_mod

    monkeypatch.setattr(series_mod, "HARD_CAP", 4096)
    with pytest.raises(TruncationError):
        log_positive_value(geometric_series, 0.99999)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_bad_tolerance_is_rejected_before_scanning(geometric_series, tol,
                                                   monkeypatch):
    from wvlab import RadialGrid, evaluate_grid, stats, series as series_mod

    # An unchecked tolerance of inf scans up to HARD_CAP terms; keep the
    # cap small so that a regression fails fast instead of allocating.
    monkeypatch.setattr(series_mod, "HARD_CAP", 1 << 16)
    grid = RadialGrid.geometric_in_gap(0.5, 0.5, 3)
    for evaluate in (lambda: log_positive_value(geometric_series, 0.5, tol),
                     lambda: truncation_horizon(geometric_series, 0.5, tol),
                     lambda: stats(geometric_series, -0.5, tol),
                     lambda: evaluate_grid(geometric_series, grid, tol)):
        with pytest.raises(ValidationError, match="tolerance"):
            evaluate()



@pytest.mark.parametrize("tol", [50.5, 100.0, 1e300])
def test_tolerance_above_the_tail_run_is_rejected_before_scanning(tol):
    """Above ``TAIL_RUN`` the run rule's threshold ``mu * tol / 50`` lies
    above every term, so no horizon is ever accepted: every entry point
    rejects such a tolerance, naming the bound, before any coefficient is
    computed."""
    from wvlab import RadialGrid, evaluate_grid, family, stats

    series = family("kovari", rho=1)  # a recurrence: it keeps what it fills
    grid = RadialGrid.geometric_in_gap(0.5, 0.5, 2)
    for evaluate in (lambda: log_positive_value(series, 0.5, tol),
                     lambda: truncation_horizon(series, 0.5, tol),
                     lambda: stats(series, -0.5, tol),
                     lambda: evaluate_grid(series, grid, tol)):
        with pytest.raises(ValidationError, match=f"at most {TAIL_RUN}:"):
            evaluate()
    assert series._source._end == 0


def test_tolerance_at_the_tail_run_is_accepted(geometric_series):
    """``tol = TAIL_RUN`` puts the threshold at the running max: at r = 1/2
    the first term is the max and the next 50 lie below it."""
    assert truncation_horizon(geometric_series, 0.5, TAIL_RUN) == 1
    assert log_positive_value(geometric_series, 0.5, TAIL_RUN) == math.log(1.5)


def test_concurrent_readers_bitwise_identical(suleimanov_half_series):
    from concurrent.futures import ThreadPoolExecutor

    radii = [0.3, 0.5, 0.7, 0.9, 0.95] * 4

    def run(r):
        return log_positive_value(suleimanov_half_series, r)

    serial = [run(r) for r in radii]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(run, radii))
    assert serial == parallel


def test_concurrent_readers_past_the_cache_bitwise_identical(monkeypatch):
    """kovari(1) under a cache of four chunks: its readers drop chunks and
    compute them again while others hold views of them, switching threads
    often, and every result keeps the serial bits."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(families_mod, "_CACHE_TERMS", 2 ** 18)
    series = family("kovari", rho=1)
    radii = [0.5, 0.9, 0.99, 0.995, 0.998, 0.999] * 3

    def run(r):
        return log_positive_value(series, r)

    serial = [run(r) for r in radii]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, radii, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert serial == parallel
    assert series._source._end > 5 * 2 ** 18
