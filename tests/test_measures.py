import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvlab import (
    DivergenceError,
    DomainError,
    IntervalSet,
    ValidationError,
    final_density,
    h_custom,
    h_disk,
    h_disklog,
    h_divergence_check,
    h_log_measure,
    h_unit,
    log_density,
)


# --------------------------------------------------------------------------
# interval set arithmetic


def test_from_pairs_sorts_merges_adjacent():
    E = IntervalSet.from_pairs([(0.5, 0.6), (0.1, 0.2), (0.2, 0.3)], 1.0)
    assert E.intervals == ((0.1, 0.3), (0.5, 0.6))


def test_from_pairs_merges_overlap():
    E = IntervalSet.from_pairs([(0.1, 0.4), (0.3, 0.5)], 1.0)
    assert E.intervals == ((0.1, 0.5),)


def test_from_pairs_validates_range():
    with pytest.raises(ValidationError):
        IntervalSet.from_pairs([(0.5, 1.5)], 1.0)
    with pytest.raises(ValidationError):
        IntervalSet.from_pairs([(0.5, 0.5)], 1.0)
    with pytest.raises(ValidationError):
        IntervalSet.from_pairs([(-0.1, 0.5)], 1.0)


def test_touches_boundary_flag():
    assert IntervalSet.from_pairs([(0.9, 1.0)], 1.0).touches_boundary
    assert not IntervalSet.from_pairs([(0.9, 0.99)], 1.0).touches_boundary


def test_text_roundtrip():
    E = IntervalSet.from_pairs([(0.1, 0.25), (0.5, 0.75)], 1.0)
    back = IntervalSet.from_text(E.to_text(), radius=1.0)
    assert back.intervals == E.intervals


def test_text_format_with_comments():
    text = "# exceptional cells\n0.1 0.2\n0.4 0.5  # trailing note\n\n"
    E = IntervalSet.from_text(text, radius=1.0)
    assert E.intervals == ((0.1, 0.2), (0.4, 0.5))


def test_text_format_rejects_garbage():
    with pytest.raises(ValidationError):
        IntervalSet.from_text("0.1 0.2 0.3\n", radius=1.0)
    with pytest.raises(ValidationError):
        IntervalSet.from_text("a b\n", radius=1.0)


interval_pairs = st.lists(
    st.tuples(st.floats(0.0, 0.98), st.floats(0.001, 0.3)).map(
        lambda t: (t[0], min(t[0] + t[1], 0.999))
    ).filter(lambda p: p[0] < p[1]),
    min_size=0, max_size=8,
)


@given(interval_pairs)
@settings(max_examples=200)
def test_normalization_invariants(pairs):
    E = IntervalSet.from_pairs(pairs, 1.0)
    ivs = E.intervals
    assert all(lo < hi for lo, hi in ivs)
    assert all(b_lo > a_hi for (_, a_hi), (b_lo, _) in zip(ivs, ivs[1:]))
    assert E.total_length() <= 1.0


@given(interval_pairs, interval_pairs)
@settings(max_examples=60, deadline=None)
def test_measure_monotone_under_union(pairs_a, pairs_b):
    A = IntervalSet.from_pairs(pairs_a, 1.0)
    B = IntervalSet.from_pairs(pairs_b, 1.0)
    U = A.union(B)
    mA = h_log_measure(A, h_disk()).require_value()
    mU = h_log_measure(U, h_disk()).require_value()
    assert mU >= mA - 1e-9 * max(1.0, mU)
    for r in (0.3, 0.7):
        assert final_density(U, r) >= final_density(A, r) - 1e-15
        if r > 0:
            assert log_density(U, r) >= log_density(A, r) - 1e-9


def test_measure_additive_on_disjoint_union():
    A = IntervalSet.from_pairs([(0.1, 0.2), (0.5, 0.6)], 1.0)
    B = IntervalSet.from_pairs([(0.3, 0.4), (0.7, 0.8)], 1.0)
    mA = h_log_measure(A, h_disk()).require_value()
    mB = h_log_measure(B, h_disk()).require_value()
    mU = h_log_measure(A.union(B), h_disk()).require_value()
    assert mU == pytest.approx(mA + mB, rel=1e-8)


# --------------------------------------------------------------------------
# unit-value integrals and densities


def test_disk_measure_unit_integral():
    E = IntervalSet.from_pairs([(1 - math.exp(-1), 1 - math.exp(-2))], 1.0)
    got = h_log_measure(E, h_disk()).require_value()
    assert got == pytest.approx(1.0, abs=1e-9)


def test_unit_measure_unit_integral():
    E = IntervalSet.from_pairs([(1.0, math.e)], math.inf)
    got = h_log_measure(E, h_unit()).require_value()
    assert got == pytest.approx(1.0, abs=1e-9)


def test_disklog_measure_unit_integral():
    E = IntervalSet.from_pairs(
        [(1 - math.exp(-math.e), 1 - math.exp(-math.e ** 2))], 1.0)
    got = h_log_measure(E, h_disklog()).require_value()
    assert got == pytest.approx(1.0, abs=1e-9)


def test_boundary_touching_is_divergent():
    E = IntervalSet.from_pairs([(0.5, 1.0)], 1.0)
    out = h_log_measure(E, h_disk())
    assert out.divergent and out.value is None
    with pytest.raises(DomainError):
        out.require_value()


def test_h_measure_domain_error_beyond_weight():
    E = IntervalSet.from_pairs([(0.5, 2.0)], math.inf)
    with pytest.raises(DomainError):
        h_log_measure(E, h_disk())


def test_log_density_examples():
    empty = IntervalSet.empty(1.0)
    assert log_density(empty, 0.5) == 0.0
    r = 1 - math.exp(-2.0)
    full = IntervalSet.from_pairs([(0.0, r)], 1.0)
    assert log_density(full, r) == pytest.approx(1.0, rel=1e-9)
    E = IntervalSet.from_pairs([(1 - math.exp(-1), 1 - math.exp(-2))], 1.0)
    assert log_density(E, 1 - math.exp(-4.0)) == pytest.approx(0.25,
                                                               rel=1e-9)


def test_log_density_domain():
    E = IntervalSet.empty(1.0)
    with pytest.raises(DomainError):
        log_density(E, 0.0)
    with pytest.raises(ValidationError):
        log_density(IntervalSet.empty(math.inf), 0.5)


def test_final_density_examples():
    assert final_density(IntervalSet.empty(1.0), 0.5) == 0.0
    E = IntervalSet.from_pairs([(0.9, 1.0)], 1.0)
    assert final_density(E, 0.9) == 1.0
    E2 = IntervalSet.from_pairs([(0.95, 0.975)], 1.0)
    assert final_density(E2, 0.9) == pytest.approx(0.25, abs=1e-15)


def test_final_density_is_exact():
    # endpoint arithmetic only: representable endpoints give exact quotients
    E = IntervalSet.from_pairs([(0.75, 0.875)], 1.0)
    assert final_density(E, 0.5) == 0.25


def test_quadrature_that_runs_out_of_levels_raises():
    """A step weight defeats the Richardson refinement: when the levels run
    out the quadrature raises, naming its interval and tolerance, instead
    of returning its last estimate (0.6001302083333332 of the exact 0.6)."""
    from wvlab.measures import _integrate_smooth

    step = h_custom(lambda r: 1.0 if r < 0.5 else 2.0, 0.0, 1.0).weight
    with pytest.raises(DivergenceError, match=r"\[0\.3, 0\.7\].*1e-12"):
        _integrate_smooth(step, 0.3, 0.7, 1e-12, max_level=10)


# --------------------------------------------------------------------------
# divergence checks


def test_divergence_check_builtin_weights_pass():
    assert h_divergence_check(h_unit()).passed
    assert h_divergence_check(h_disk()).passed
    assert h_divergence_check(h_disklog()).passed


def test_divergence_check_convergent_custom_fails():
    h = h_custom(lambda r: 1.0 - r, 0.0, 1.0)
    res = h_divergence_check(h)
    assert not res.passed
    assert res.partial_integral < 1.0


def test_divergence_check_fast_growth_passes_by_threshold():
    h = h_custom(lambda r: (1.0 - r) ** -2, 0.0, 1.0)
    res = h_divergence_check(h)
    assert res.passed
    assert res.partial_integral > 1e6


# --------------------------------------------------------------------------
# size-notion comparisons at grid scale


def finite_disk_measure_set(kmax=21):
    # disk measure sum_k ~2^-k (finite), tail thinning toward 1; interval
    # widths 2^-2k hit float resolution near k = 27, so stop well before
    pairs = []
    for k in range(2, kmax):
        lo = 1 - 2.0 ** -k
        hi = 1 - 2.0 ** -k * (1 - 2.0 ** -k)
        pairs.append((lo, hi))
    return IntervalSet.from_pairs(pairs, 1.0)


def test_finite_disk_measure_implies_vanishing_densities():
    E = finite_disk_measure_set()
    assert h_log_measure(E, h_disk()).require_value() < math.inf
    rs = [1 - 2.0 ** -k for k in range(3, 20, 4)]
    fd = [final_density(E, r) for r in rs]
    ld = [log_density(E, r) for r in rs]
    assert fd[-1] < 1e-4
    assert ld[-1] < 0.05
    assert fd[-1] <= fd[0]
    assert ld[-1] <= ld[0]


def test_disklog_finite_but_disk_growing_witness():
    """Intervals [1 - e^-(2^j), 1 - e^-(2^j + j)) have disk measure j each
    (divergent partial sums) while the disklog measure stays summable; the
    spec's candidate [1-e^-k, 1-e^-k(1-1/k^2)) has summable disk measure and
    cannot separate the notions."""
    disk_partials = []
    disklog_partials = []
    for j_max in range(1, 5):
        pairs = []
        for j in range(1, j_max + 1):
            lo = 1 - math.exp(-(2.0 ** j))
            hi = 1 - math.exp(-(2.0 ** j + j))
            pairs.append((lo, hi))
        E = IntervalSet.from_pairs(pairs, 1.0)
        disk_partials.append(h_log_measure(E, h_disk()).require_value())
        disklog_partials.append(
            h_log_measure(E, h_disklog()).require_value())
    # disk partial sums are 1, 3, 6, 10 (divergent triangular growth);
    # disklog increments log(1 + j 2^-j) stay summable
    want_disk = [sum(range(1, j + 1)) for j in range(1, 5)]
    assert disk_partials == pytest.approx(want_disk, rel=1e-6)
    want_disklog = [
        math.fsum(math.log1p(j * 2.0 ** -j) for j in range(1, jm + 1))
        for jm in range(1, 5)
    ]
    assert disklog_partials == pytest.approx(want_disklog, rel=1e-6)
    assert disklog_partials[-1] < 1.5
    inc_disk = [b - a for a, b in zip(disk_partials, disk_partials[1:])]
    inc_dlog = [b - a for a, b in zip(disklog_partials, disklog_partials[1:])]
    ratios = [a / b for a, b in zip(inc_disk, inc_dlog)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
