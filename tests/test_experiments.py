import math
import tracemalloc

import pytest

from wvlab import (
    RadialGrid,
    ValidationError,
    bound_spec,
    constant_sweep,
    evaluate_grid,
    family,
    h_disk,
    h_unit,
    log_max_term,
    log_positive_value,
    optimality_check,
    psi_logpow,
    psi_pow,
    standard_lemma_set,
    violation_set,
)
from wvlab import experiments


def test_grid_constructors():
    g = RadialGrid.geometric(2.0, 1e4, 200)
    assert len(g.points) == 200
    assert g.points[0] == pytest.approx(2.0)
    assert g.points[-1] == pytest.approx(1e4)
    gg = RadialGrid.geometric_in_gap(0.5, 0.9, 50)
    assert gg.points[0] == pytest.approx(0.5)
    assert all(b > a for a, b in zip(gg.points, gg.points[1:]))
    span = RadialGrid.gap_span(0.9, 0.999, 40)
    assert span.points[0] == pytest.approx(0.9)
    assert span.points[-1] == pytest.approx(0.999, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValidationError):
        RadialGrid.geometric(2.0, 1.0, 10)
    with pytest.raises(ValidationError):
        RadialGrid.geometric_in_gap(0.5, 1.1, 10)
    with pytest.raises(ValidationError):
        RadialGrid.geometric(0.5, 0.9, 10, R=0.8)  # exceeds R
    with pytest.raises(ValidationError, match="R=inf"):  # radii inf - inf
        RadialGrid.geometric_in_gap(0.5, 0.5, 3, R=math.inf)


def test_grid_count_is_capped(monkeypatch):
    monkeypatch.setattr(experiments, "MAX_GRID_POINTS", 10)
    for build in (lambda count: RadialGrid.geometric(2.0, 10.0, count),
                  lambda count: RadialGrid.geometric_in_gap(0.5, 0.5, count),
                  lambda count: RadialGrid.gap_span(0.5, 0.9, count)):
        assert len(build(10).points) == 10
        with pytest.raises(ValidationError, match="count <= 10, got 11"):
            build(11)


def test_grid_refinement_nests():
    # the refined grid holds every base radius bit for bit, so a walk of it
    # evaluates the base grid exactly
    for g in (RadialGrid.geometric_in_gap(0.5, 0.9, 20),
              RadialGrid.gap_span(0.9, 0.998, 60),
              RadialGrid.geometric(2.0, 1e3, 50)):
        for factor in (2, 4):
            fine = g.refined(factor)
            assert len(fine.points) == factor * (g.count - 1) + 1
            assert fine.points[::factor] == g.points


def test_grid_refinement_is_capped(monkeypatch):
    """``refined`` counts its points before it builds any: a refinement
    by 10**9 is refused at once, and a grid of 500,000 points, the most
    that ``optimality_check`` may be given, still refines by 2."""
    grid = RadialGrid.geometric(1.0, 2.0, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError,
                           match="by 1000000000 makes 1000000001, past"):
            grid.refined(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    half = experiments.MAX_GRID_POINTS // 2
    assert len(RadialGrid.geometric(1.0, 2.0, half).refined(2).points) \
        == 2 * half - 1
    monkeypatch.setattr(experiments, "MAX_GRID_POINTS", 10)
    assert len(grid.refined(9).points) == 10
    with pytest.raises(ValidationError, match="past the cap of 10"):
        grid.refined(10)


@pytest.mark.parametrize("factor", [1, 0, -2, 2.5, 2.0, "2", True])
def test_grid_refinement_wants_an_integer_factor_from_2(factor):
    grid = RadialGrid.geometric_in_gap(0.5, 0.9, 20)
    with pytest.raises(ValidationError, match="an integer >= 2"):
        grid.refined(factor)


def test_violation_set_geometric_kov_empty_past_knee(geometric_series):
    # with C=1, delta=0.5: M = mu/(1-r) and the bound adds a positive log
    # power once log(1/(1-r)) > 1, so no violations for r > 1 - 1/e
    grid = RadialGrid.geometric_in_gap(0.7, 0.9, 50)
    rep = violation_set(geometric_series, bound_spec("kov", delta=0.5, C=1.0),
                        grid, measure_h=[h_disk()])
    assert rep.violation_count == 0
    assert rep.E_est.intervals == ()
    assert rep.measure_by["disk"].value == 0.0
    assert rep.undefined_points == []


def test_violation_set_huge_constant_empty(exp_series):
    grid = RadialGrid.geometric(2.0, 100.0, 40)
    rep = violation_set(exp_series, bound_spec("wvc", delta=1.0, n=2, C=1e9),
                        grid)
    assert rep.violation_count == 0


def test_violation_set_exp_classical(exp_series):
    # the classical inequality with a roomy constant: tiny exceptional set
    grid = RadialGrid.geometric(2.0, 1e4, 120)
    rep = violation_set(exp_series, bound_spec("wvc", delta=1.0, n=2, C=10.0),
                        grid, measure_h=[h_unit()])
    measure = rep.measure_by["unit"]
    assert not measure.divergent
    assert measure.value < 1.0


def test_violation_set_reports_undefined_points(geometric_series):
    # log mu = 0 for the geometric family, so log_2(mu/(1-r)) needs
    # log(1/(1-r)) > 1; early grid points are excluded and reported
    grid = RadialGrid.geometric_in_gap(0.2, 0.9, 30)
    rep = violation_set(geometric_series,
                        bound_spec("logimp", delta=0.5, n=2, C=1.0), grid)
    assert rep.undefined_points
    assert all(r < 1 - 1 / math.e + 1e-9 for r, _ in rep.undefined_points)
    assert len(rep.margins) + len(rep.undefined_points) == len(grid.points)


def test_violation_set_rejects_lower_and_monomial(geometric_series):
    grid = RadialGrid.geometric_in_gap(0.5, 0.9, 10)
    with pytest.raises(ValidationError):
        violation_set(geometric_series, bound_spec("lower"), grid)
    mono = family("monomial", coeff=1.0, degree=2)
    with pytest.raises(ValidationError):
        violation_set(mono, bound_spec("kov", delta=0.5, C=1.0), grid)


def test_violation_set_rejects_finite_support():
    # polynomials beyond monomials are constructible but stay bounded on
    # every disk, so the growth-comparison drivers refuse them
    from wvlab import PowerSeries

    poly = PowerSeries.from_log_coeffs([0.0, 0.0, math.log(2)], radius=1.0)
    grid = RadialGrid.geometric_in_gap(0.5, 0.9, 10)
    with pytest.raises(ValidationError):
        violation_set(poly, bound_spec("kov", delta=0.5, C=1.0), grid)


def test_standard_lemma_budget_example_value():
    assert psi_tail_budget() == pytest.approx(0.1)


def psi_tail_budget():
    from wvlab import psi_tail, psi_square

    return psi_tail(psi_square(), 10.0)


def test_standard_lemma_set_geometric_nontrivial(geometric_series):
    # g'(x) = r/(1-r) beats h(r) g(x)^2 / (1-r) exactly while
    # log(1/(1-r))^2 < r: a genuine violating stretch inside the grid
    grid = RadialGrid.gap_span(0.2, 0.93, 150)
    res = standard_lemma_set(geometric_series, psi_pow(1.0), h_disk(), "g",
                             grid)
    assert res.E.intervals  # nonempty
    lo, hi = res.E.intervals[0][0], res.E.intervals[-1][1]
    assert lo == pytest.approx(0.2, abs=0.02)
    assert 0.5 < hi < 0.55
    assert res.measure.value <= res.budget
    # analytic endpoints: violations while r >= log(1/(1-r))^2
    want = math.log((1 - 0.2) / (1 - hi))
    assert res.measure.value == pytest.approx(want, rel=0.05)


def test_standard_lemma_set_exp_empty(exp_series):
    grid = RadialGrid.geometric(1.5, 500.0, 60)
    res = standard_lemma_set(exp_series, psi_pow(1.0), h_unit(), "gprime",
                             grid)
    assert res.E.intervals == ()
    assert res.budget == pytest.approx(
        1.0 / stats_g1(exp_series, grid.points[0]), rel=1e-9)


def stats_g1(series, r):
    from wvlab import stats

    return stats(series, math.log(r)).g1


def test_standard_lemma_set_hypothesis_check(exp_series):
    grid = RadialGrid.geometric(1.5, 500.0, 30)
    with pytest.raises(ValidationError):
        standard_lemma_set(exp_series, psi_pow(1.0), h_unit(), "nope", grid)


def test_standard_lemma_set_psi_domain_gate(geometric_series):
    # logpow needs g(x0) > e; a grid starting at small radii must refuse
    grid = RadialGrid.gap_span(0.2, 0.9, 40)
    from wvlab import DomainError

    with pytest.raises(DomainError):
        standard_lemma_set(geometric_series, psi_logpow(1.0), h_disk(), "g",
                           grid)


def test_constant_sweep_finds_constant(exp_series):
    grid = RadialGrid.geometric(2.0, 1e3, 60)
    res = constant_sweep(exp_series, bound_spec("wvc", delta=1.0, n=2),
                         grid, h_unit(), measure_budget=1.0)
    assert res.c_star is not None
    assert 1e-3 <= res.c_star <= 1e9
    # trajectory measures are nonincreasing in C
    measures = [m for _, m in res.trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(measures, measures[1:]))


def test_constant_sweep_infinite_budget_returns_minimum(exp_series):
    grid = RadialGrid.geometric(2.0, 100.0, 30)
    res = constant_sweep(exp_series, bound_spec("wv", delta=0.5), grid,
                         h_unit(), measure_budget=math.inf)
    assert res.c_star == pytest.approx(1e-3)


def test_constant_sweep_rejects_monomial():
    mono = family("monomial", coeff=2.0, degree=3)
    grid = RadialGrid.geometric_in_gap(0.5, 0.9, 10)
    with pytest.raises(ValidationError):
        constant_sweep(mono, bound_spec("kov", delta=0.5), grid, h_disk(),
                       1.0)


def test_optimality_check_kovari(kovari1_series):
    grid = RadialGrid.gap_span(0.9, 0.99, 25)
    res = optimality_check(kovari1_series, grid)
    assert res.c_low > 0
    assert res.rel_change < 0.10
    assert not res.outside_model_families


def test_optimality_check_geometric_flagged(geometric_series):
    grid = RadialGrid.gap_span(0.9, 0.99, 20)
    res = optimality_check(geometric_series, grid)
    assert res.outside_model_families
    assert res.c_low > 0


def test_optimality_check_skips_undefined_prefix(suleimanov_half_series):
    # at small r the log factor is not yet positive; points are skipped
    grid = RadialGrid.gap_span(0.05, 0.95, 40)
    res = optimality_check(suleimanov_half_series, grid)
    assert res.skipped_points > 0
    assert res.c_low > 0


def test_violation_measure_stable_under_refinement(geometric_series):
    # 20%-stability of the measured set under grid doubling
    grid = RadialGrid.gap_span(0.2, 0.93, 150)
    res1 = standard_lemma_set(geometric_series, psi_pow(1.0), h_disk(), "g",
                              grid)
    res2 = standard_lemma_set(geometric_series, psi_pow(1.0), h_disk(), "g",
                              grid.refined(2))
    m1, m2 = res1.measure.value, res2.measure.value
    assert abs(m1 - m2) <= 0.2 * max(m1, m2)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("family_id,params", [
    ("suleimanov", {"epsilon": 0.5}),
    ("kovari", {"rho": 1}),
])
def test_evaluate_grid_two_tolerances_match_per_point(family_id, params, tol):
    # log_mu, nu and log_M all come from one window at ``tol``; the max
    # term of these unimodal families lies before every horizon, so it is
    # the default tolerance's, and the chained one-window scans must
    # reproduce the per-point calls.
    series = family(family_id, **params)
    grid = RadialGrid.gap_span(0.0, 0.995, 12)  # r = 0 takes no scan
    for ev in evaluate_grid(series, grid, tol):
        mt = log_max_term(series, ev.r)
        assert (ev.log_mu, ev.nu) == (mt.log_mu, mt.central_index)
        assert ev.log_M == log_positive_value(series, ev.r, tol)
