import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wvlab import (
    BOUND_FORMULAS,
    BOUND_IDS,
    DomainError,
    ValidationError,
    bound_spec,
    eval_bound,
    h_by_id,
    h_custom,
    h_disk,
    h_disklog,
    h_unit,
    iterated_log,
    phi_chain_check,
    psi_custom,
    psi_eval,
    psi_exphalf,
    psi_iter,
    psi_logpow,
    psi_pow,
    psi_square,
    psi_tail,
)
from wvlab.bounds import BOUND_TABLE, H_TABLE, PSI_TABLE, psi_spec


# --------------------------------------------------------------------------
# iterated log


def test_iterated_log_examples():
    assert iterated_log(1, math.e) == pytest.approx(1.0)
    assert iterated_log(2, math.e ** math.e) == pytest.approx(1.0, abs=1e-12)


def test_iterated_log_domain_error_names_level():
    with pytest.raises(DomainError) as err:
        iterated_log(2, 2.0)
    assert "log_2" in str(err.value)
    with pytest.raises(DomainError):
        iterated_log(1, 1.0)
    with pytest.raises(ValidationError):
        iterated_log(0, 10.0)


# --------------------------------------------------------------------------
# psi evaluation and tails


def test_psi_eval_examples():
    assert psi_eval(psi_pow(0.5), 4.0) == pytest.approx(8.0, rel=1e-14)
    assert psi_eval(psi_exphalf(), 2.0) == pytest.approx(math.e, rel=1e-14)
    # iter with n=2 is y*(log y)^(1+delta)
    y = math.e ** 2
    assert psi_eval(psi_iter(2, 1.0), y) == pytest.approx(4 * y, rel=1e-12)
    assert psi_eval(psi_iter(2, 1.0), y) == pytest.approx(
        psi_eval(psi_logpow(1.0), y), rel=1e-14)
    assert psi_eval(psi_square(), 7.0) == pytest.approx(49.0)


def test_psi_eval_domain_gate():
    with pytest.raises(DomainError):
        psi_eval(psi_logpow(1.0), 1.5)  # below default threshold e
    with pytest.raises(DomainError):
        psi_eval(psi_iter(3, 0.5), 2.0)  # needs log log y > 0


def test_psi_eval_past_float_range_is_a_domain_error():
    # exp(y/2) leaves float range from y ~ 1419.6, its log does not
    for spec, y in ((psi_exphalf(), 1500.0), (psi_pow(1.0), 1e200)):
        with pytest.raises(DomainError) as err:
            psi_eval(spec, y)
        assert err.value.subexpression == f"psi({spec})"


def test_psi_tail_closed_forms():
    assert psi_tail(psi_square(), 10.0) == pytest.approx(0.1)
    assert psi_tail(psi_pow(1.0), 2.0) == pytest.approx(0.5)
    assert psi_tail(psi_logpow(1.0), math.e ** 2) == pytest.approx(0.5)
    assert psi_tail(psi_exphalf(), 0.0) == pytest.approx(2.0)
    assert psi_tail(psi_iter(2, 1.0), math.e ** 2) == pytest.approx(0.5)


@pytest.mark.parametrize("spec,a0s", [
    (psi_pow(0.7), (1.0, 3.0, 11.0)),
    (psi_logpow(1.2), (math.e, 5.0, 40.0)),
    (psi_square(), (0.5, 2.0, 25.0)),
    (psi_exphalf(), (0.1, 1.0, 9.0)),
])
def test_psi_tail_matches_quadrature(spec, a0s):
    # independent oracle: scipy quadrature of 1/psi over [a0, a1] must match
    # the closed-form tail difference (a direct improper integral either
    # converges too slowly or overflows for the log-type tails)
    for a0 in a0s:
        a1 = 4.0 * a0 + 10.0
        oracle, _ = quad(lambda y: 1.0 / psi_eval(spec, y), a0, a1,
                         limit=200)
        got = psi_tail(spec, a0) - psi_tail(spec, a1)
        assert got == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("spec", [psi_pow(0.7), psi_square()])
def test_psi_tail_matches_improper_quadrature(spec):
    # algebraic tails also pass the direct improper-integral check
    for a0 in (1.0, 4.0):
        oracle, _ = quad(lambda y: 1.0 / psi_eval(spec, y), a0, np.inf)
        assert psi_tail(spec, a0) == pytest.approx(oracle, rel=1e-8)


def test_psi_custom_tail_quadrature():
    spec = psi_custom(lambda y: y ** 2, a=1.0)
    assert psi_tail(spec, 4.0) == pytest.approx(0.25, rel=1e-8)


@pytest.mark.parametrize("spec,lo,hi", [
    (psi_pow(0.5), 1e-6, 1e12),
    (psi_logpow(1.0), math.e, 1e12),
    (psi_iter(3, 0.5), math.e ** math.e, 1e12),
    (psi_exphalf(), 0.0, 1400.0),
    (psi_square(), 1e-6, 1e12),
])
def test_psi_positive_and_increasing_on_grid(spec, lo, hi):
    ys = np.geomspace(max(lo, spec.a, 1e-6), hi, 120)
    if spec.a == 0.0 and spec.psi_id == "exphalf":
        ys = np.linspace(0.0, hi, 120)
    vals = [psi_eval(spec, float(y)) for y in ys]
    assert all(v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# h weights


def test_h_values():
    assert h_unit().value(5.0) == 1.0
    assert h_disk().value(0.9) == pytest.approx(10.0)
    r = 1 - math.exp(-2.0)
    assert h_disklog().value(r) == pytest.approx(math.exp(2.0) / 2.0)
    with pytest.raises(DomainError):
        h_unit().value(0.5)
    with pytest.raises(DomainError):
        h_disklog().value(0.1)


def test_h_value_past_float_range_is_a_domain_error():
    h = h_custom(lambda r: 10 ** 400, 0.0, 1.0)
    with pytest.raises(DomainError) as err:
        h.value(0.5)
    assert err.value.subexpression == "h(r)"


def test_infinite_custom_h_or_psi_is_a_domain_error():
    """A user function returning inf is past float range, not log = inf."""
    h = h_custom(lambda r: math.inf, 0.0, 1.0)
    for evaluate in (lambda: h.log_value(0.5), lambda: h.value(0.5)):
        with pytest.raises(DomainError, match="exceeds float range") as err:
            evaluate()
        assert err.value.subexpression == "h(r)"
    psi = psi_custom(lambda y: math.inf, a=1.0)
    with pytest.raises(DomainError, match="exceeds float range") as err:
        psi_eval(psi, 2.0)
    assert err.value.subexpression == "psi(y)"
    for main in (bound_spec("main", h=h, psi1=psi_pow(1.0),
                            psi2=psi_pow(1.0)),
                 bound_spec("main", h=h_disk(), psi1=psi,
                            psi2=psi_pow(1.0))):
        with pytest.raises(DomainError, match="exceeds float range"):
            eval_bound(main, log_mu=10.0, log_M=11.0, r=0.9)


def test_h_log_values_match():
    # the linear closed forms: 1, 1/(1-r) and 1/((1-r) log(1/(1-r)))
    for h, r, value in ((h_unit(), 7.0, 1.0), (h_disk(), 0.99, 100.0),
                        (h_disklog(), 0.95, 1 / (0.05 * math.log(20.0)))):
        assert h.log_value(r) == pytest.approx(math.log(value), rel=1e-13)


def test_h_weight_is_the_value_with_1_over_r_on_an_infinite_disk():
    for h, rs in ((h_unit(), [1.0, 3.0]), (h_disk(), [0.0, 0.5, 0.99]),
                  (h_disklog(), [0.7, 0.999]),
                  (h_custom(lambda r: 1.0 + r, 0.5, 1.0), [0.5, 0.75])):
        factor = [1.0 / r if math.isinf(h.radius) else 1.0 for r in rs]
        assert h.weight(np.array(rs)) == pytest.approx(
            [h.value(r) * f for r, f in zip(rs, factor)], rel=1e-13)


def test_h_by_id_unknown():
    with pytest.raises(ValidationError):
        h_by_id("nope")


def test_psi_spec_parameters():
    # the threshold may follow the parameters positionally
    assert psi_pow(0.5, 2.0) == psi_pow(0.5, a=2.0) == psi_spec("pow", 0.5, 2.0)
    assert psi_pow(0.5).a == 0.0 and psi_logpow(1.0).a == math.e
    assert psi_iter(3, 0.5).a == pytest.approx(math.e ** math.e)
    with pytest.raises(TypeError):
        psi_pow()
    with pytest.raises(TypeError):
        psi_pow(0.5, 2.0, 3.0)
    for bad in (lambda: psi_pow(math.inf), lambda: psi_pow(0.5, a=math.nan),
                lambda: psi_square(a=math.inf), lambda: psi_iter(5, 0.5),
                lambda: psi_spec("nope")):
        with pytest.raises(ValidationError):
            bad()


def test_readme_names_exactly_the_table_ids():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    bounds = text.split("### Bound ids", 1)[1].split("\n\n`main`", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", bounds, re.M) == list(BOUND_IDS)
    weights = text.split("Weight functions `h`:", 1)[1]
    weights, psis = weights.split("Psi specs:", 1)
    assert re.findall(r"`(\w+)` \(", weights) == list(H_TABLE)
    psis = psis.split(".", 1)[0]
    assert re.findall(r"`([\w:]+)`", psis) == [
        ":".join([pid, *(name.upper() for name, _ in row.params)])
        for pid, row in PSI_TABLE.items()]
    assert list(BOUND_FORMULAS) == list(BOUND_TABLE) == list(BOUND_IDS)


# --------------------------------------------------------------------------
# bound expressions


def test_bound_spec_validation():
    with pytest.raises(ValidationError):
        bound_spec("wv")                      # missing delta
    with pytest.raises(ValidationError):
        bound_spec("wvc", delta=1.0)          # missing n
    with pytest.raises(ValidationError):
        bound_spec("wv", delta=1.0, n=3)      # n not allowed
    with pytest.raises(ValidationError):
        bound_spec("lower", C=2.0)            # lower is pinned to C=1
    with pytest.raises(ValidationError):
        bound_spec("main", C=1.0)             # needs h and psis
    with pytest.raises(ValidationError):
        bound_spec("wv", delta=0.5, h=h_disk())  # h not allowed
    with pytest.raises(ValidationError):
        bound_spec("nope", delta=1.0)


def test_eval_wv_example():
    spec = bound_spec("wv", delta=0.5, C=1.0)
    assert eval_bound(spec, log_mu=10.0) == pytest.approx(
        10 + math.log(10), abs=1e-12)


def test_eval_kov_example():
    spec = bound_spec("kov", delta=0.5, C=1.0)
    want = 10 + math.log(10) + math.log(10 + math.log(10))
    assert eval_bound(spec, log_mu=10.0, r=0.9) == pytest.approx(
        want, abs=1e-12)


def test_eval_main_example():
    spec = bound_spec("main", C=1.0, h=h_disk(),
                      psi1=psi_pow(1.0), psi2=psi_pow(1.0))
    got = eval_bound(spec, log_mu=0.0, log_M=100.0, r=0.9)
    assert got == pytest.approx(0.5 * (math.log(10) + 10 * math.log(10)),
                                abs=1e-10)


def test_eval_wvb_equals_wvc_n2():
    wvb = bound_spec("wvb", delta=0.7, C=2.0)
    wvc = bound_spec("wvc", delta=0.7, n=2, C=2.0)
    for L in (3.0, 10.0, 200.0):
        assert eval_bound(wvb, log_mu=L) == eval_bound(wvc, log_mu=L)


def test_eval_sk_equals_sk_n2():
    a = bound_spec("sk", delta=0.4, C=1.0)
    b = bound_spec("sk_n", delta=0.4, n=2, C=1.0)
    for L, r in ((5.0, 0.9), (40.0, 0.99)):
        assert eval_bound(a, log_mu=L, r=r) == eval_bound(b, log_mu=L, r=r)


def test_eval_logimp_equals_kov_n():
    # same display expression, catalogued under both claims
    a = bound_spec("logimp", delta=0.5, n=2, C=1.0)
    b = bound_spec("kov_n", delta=0.5, n=2, C=1.0)
    assert eval_bound(a, log_mu=30.0, r=0.99) == \
        eval_bound(b, log_mu=30.0, r=0.99)


def test_eval_sul_values():
    # C mu (1-r)^-(1+delta) (log(mu/(1-r)))^(1/2+delta)
    spec = bound_spec("sul", delta=0.5, C=2.0)
    r, L = 0.9, 7.0
    u = math.log(10)
    want = math.log(2) + L + 1.5 * u + 1.0 * math.log(L + u)
    assert eval_bound(spec, log_mu=L, r=r) == pytest.approx(want, rel=1e-14)


def test_eval_sk4_values():
    spec = bound_spec("sk4", delta=0.5, n=2, C=1.0, h=h_disk())
    r, L = 0.9, 5.0
    lh = math.log(10)
    W = lh + L
    want = lh + L + 1.0 * math.log(lh) + 0.5 * math.log(W) \
        + 1.5 * math.log(math.log(W))
    assert eval_bound(spec, log_mu=L, r=r) == pytest.approx(want, rel=1e-13)


def test_eval_lower():
    spec = bound_spec("lower")
    r, L = 0.9, 7.0
    B = L + math.log(10)
    assert eval_bound(spec, log_mu=L, r=r) == pytest.approx(
        B + 0.5 * math.log(B), rel=1e-14)


def test_eval_bound_domain_propagates_subexpression():
    spec = bound_spec("wvc", delta=1.0, n=3, C=1.0)
    with pytest.raises(DomainError) as err:
        eval_bound(spec, log_mu=1.2)  # log log log mu undefined
    assert "log" in str(err.value)


def test_eval_main_requires_log_M():
    spec = bound_spec("main", C=1.0, h=h_disk(), psi1=psi_pow(1.0),
                      psi2=psi_pow(1.0))
    with pytest.raises(ValidationError):
        eval_bound(spec, log_mu=3.0, r=0.5)


@given(st.floats(5.0, 500.0), st.floats(0.01, 50.0))
@settings(max_examples=120)
def test_bound_monotone_in_log_mu(L, bump):
    specs = [
        bound_spec("wv", delta=0.5, C=1.0),
        bound_spec("wvc", delta=1.0, n=2, C=2.0),
        bound_spec("kov", delta=0.25, C=1.0),
        bound_spec("sk", delta=0.5, C=1.0),
        bound_spec("logimp", delta=0.5, n=2, C=1.0),
    ]
    for spec in specs:
        lo = eval_bound(spec, log_mu=L, r=0.9)
        hi = eval_bound(spec, log_mu=L + bump, r=0.9)
        assert hi >= lo


@given(st.floats(5.0, 2000.0), st.floats(10.0, 100000.0))
@settings(max_examples=120)
def test_main_monotone_in_log_M(L, log_M):
    spec = bound_spec("main", C=1.0, h=h_disk(), psi1=psi_pow(1.0),
                      psi2=psi_pow(0.5))
    lo = eval_bound(spec, log_mu=L, log_M=log_M, r=0.5)
    hi = eval_bound(spec, log_mu=L, log_M=log_M * 1.5, r=0.5)
    assert hi >= lo


def test_reduction_identity_exphalf_square():
    # main with (exphalf, square, disk) collapses to
    # log C + log mu + 1.5 log h + 0.5 log M
    rng = np.random.default_rng(7)
    for _ in range(100):
        C = float(rng.uniform(0.5, 50.0))
        log_mu = float(rng.uniform(0.1, 400.0))
        log_M = float(rng.uniform(1.0, 1000.0))
        r = float(rng.uniform(0.1, 0.99))
        spec = bound_spec("main", C=C, h=h_disk(), psi1=psi_exphalf(),
                          psi2=psi_square())
        got = eval_bound(spec, log_mu=log_mu, log_M=log_M, r=r)
        want = math.log(C) + log_mu - 1.5 * math.log1p(-r) + 0.5 * log_M
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


# --------------------------------------------------------------------------
# composition chain


def test_phi_chain_example_point():
    # at y = e^10, delta = 1 both majorizations hold (square barely)
    report = phi_chain_check(1.0, [math.exp(10.0)])
    row = report.rows[0]
    assert row.holds_product and row.holds_square
    assert row.log_phi == pytest.approx(
        14.60517 + 2 * math.log(14.605170185988092), abs=1e-5)


def test_phi_chain_small_delta_square_can_fail_midrange():
    # delta = 1 fails the square majorization on a midrange stretch;
    # reported, not asserted
    ys = np.geomspace(math.e, 1e12, 300)
    report = phi_chain_check(1.0, ys)
    assert any(not r.holds_square for r in report.rows)
    assert report.y0 is not None
    idx0 = [r.y for r in report.rows].index(report.y0)
    assert all(r.holds_square and r.holds_product
               for r in report.rows[idx0:])


def test_phi_chain_ratio_decreases_eventually():
    ys = np.geomspace(math.e, 1e12, 200)
    for delta in (0.1, 1.0):
        report = phi_chain_check(delta, ys)
        assert report.monotone_start is not None
        tail = [r.log_ratio_square for r in report.rows
                if r.y >= report.monotone_start]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < tail[0]


def test_custom_h_divergence_interface():
    h = h_custom(lambda r: 1.0 + r, 0.5, 1.0)
    assert h.value(0.75) == pytest.approx(1.75)
