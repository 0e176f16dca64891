import csv
import math

import numpy as np
import pytest

import wvlab.families as families_mod

from wvlab import (
    FamilySpec,
    ValidationError,
    binomial_series,
    exp_of_series,
    family,
    log_max_term,
    log_positive_value,
    make_family,
)
from wvlab.cli import main
from wvlab.families import _KOVARI_MAX_ORDER


def test_exp_family_coefficients(exp_series):
    got = [exp_series.log_coeff(n) for n in range(4)]
    want = [0.0, 0.0, -math.log(2), -math.log(6)]
    assert got == pytest.approx(want, abs=1e-12)



def test_exp_family_writes_no_negative_zero(exp_series, tmp_path):
    """``log 0! = log 1! = +0``, not the ``-0`` of ``-lgamma``: the max
    term of every ``nu = 0`` row is written ``0``, as for ``geometric``."""
    assert [math.copysign(1, exp_series.log_coeff(n)) for n in range(3)] \
        == [1, 1, -1]
    assert math.copysign(1, log_max_term(exp_series, 0.5).log_mu) == 1
    out = tmp_path / "exp.csv"
    assert main(["eval", "--family", "exp", "--grid-geo", "0.1:0.5:2",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [(row["log_mu"], row["nu"]) for row in rows] == [("0", "0")] * 2


def test_suleimanov_coefficients(suleimanov_half_series):
    assert suleimanov_half_series.log_coeff(0) == -math.inf
    assert suleimanov_half_series.log_coeff(4) == pytest.approx(2.0)
    assert suleimanov_half_series.log_coeff(9) == pytest.approx(3.0)


@pytest.mark.parametrize("rho,n,want", [
    (1.0, 7, 1.0),
    (2.0, 7, 8.0),     # b_n = n + 1
    (0.5, 2, 0.375),   # (0.5 * 1.5) / 2
])
def test_binomial_series_values(rho, n, want):
    b = binomial_series(rho, n + 1)
    assert b[0] == pytest.approx(1.0, rel=1e-14)
    assert b[n] == pytest.approx(want, rel=1e-12)


def test_binomial_series_ratio_recurrence():
    rho = 1.7
    b = binomial_series(rho, 40)
    for n in range(1, 40):
        assert b[n] / b[n - 1] == pytest.approx((n + rho - 1) / n, rel=1e-12)


def test_exp_of_series_recovers_factorials():
    b = np.zeros(12)
    b[1] = 1.0
    a = exp_of_series(b)
    want = [1.0 / math.factorial(n) for n in range(12)]
    assert a == pytest.approx(want, rel=1e-13)


def test_exp_of_series_constant_zero():
    a = exp_of_series(np.zeros(6))
    assert a == pytest.approx([1, 0, 0, 0, 0, 0], abs=0.0)


def test_exp_of_series_all_ones_hand_values():
    a = exp_of_series(np.ones(3))
    assert a == pytest.approx([math.e, math.e, 1.5 * math.e], rel=1e-13)


def test_exp_of_series_rejects_negative():
    with pytest.raises(ValidationError):
        exp_of_series([1.0, -0.5])


def test_kovari_log_coeff_example(kovari1_series):
    assert kovari1_series.log_coeff(2) == pytest.approx(
        1 + math.log(1.5), abs=1e-12)


def test_kovari_three_term_identity_vs_convolution(kovari1_series):
    """The linear-time generator must agree with the generic exp-of-series
    convolution; this is the identity (n+1)a_{n+1} = (2n+1)a_n - (n-1)a_{n-1}
    checked both ways."""
    n_check = 3000
    conv = exp_of_series(np.ones(n_check + 1))
    got = np.exp(kovari1_series.log_coeffs(n_check + 1))
    assert np.allclose(got, conv, rtol=1e-12, atol=0.0)
    # direct identity on the generated values
    a = got
    for n in range(1, 200):
        lhs = (n + 1) * a[n + 1]
        rhs = (2 * n + 1) * a[n] - (n - 1) * a[n - 1]
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kovari_closed_form_cross_check(kovari1_series):
    for r in (0.3, 0.5, 0.7, 0.9):
        want = 1.0 / (1.0 - r)
        got = log_positive_value(kovari1_series, r)
        assert abs(got - want) <= 1e-9 * want


def test_kovari_general_rho_closed_form():
    kov = family("kovari", rho=0.5)
    for r in (0.3, 0.5, 0.7):
        want = (1.0 - r) ** -0.5
        got = log_positive_value(kov, r)
        assert abs(got - want) <= 1e-9 * want


def test_kovari_scaling_guard_reaches_large_n(kovari1_series):
    # log a_n ~ 2 sqrt(n); far past linear-domain overflow
    val = kovari1_series.log_coeff(200_000)
    assert 600 < val < 1000


@pytest.mark.parametrize("rho,convolves", [
    *((float(rho), False) for rho in range(1, _KOVARI_MAX_ORDER + 1)),
    (2.5, True),
    (_KOVARI_MAX_ORDER + 1.0, True),
])
def test_kovari_integer_rho_skips_the_convolution(rho, convolves,
                                                  monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return exp_step(*args)

    exp_step = families_mod._exp_step
    monkeypatch.setattr(families_mod, "_exp_step", counted)
    family("kovari", rho=rho).log_coeffs(300)
    assert bool(calls) == convolves


def test_kovari2_eval_reaches_gap_3e_2(tmp_path):
    out = tmp_path / "kovari2.csv"
    q = 0.3 ** 0.2  # gap 0.1 down to 3e-2 in five steps
    assert main(["eval", "--family", "kovari", "--rho", "2", "--grid-gap",
                 f"0.9:{q!r}:6", "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    assert len(rows) == 6
    assert float(rows[-1]["r"]) == pytest.approx(0.97, abs=1e-12)
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.values())
    nus = [int(row["nu"]) for row in rows]
    assert nus == sorted(nus) and nus[0] > 0


def test_suleimanov_max_term_matches_brute_force(suleimanov_half_series):
    # same maximizer and value as an explicit argmax over n <= 1e7
    r = 0.99
    x = math.log(r)
    n = np.arange(10_000_000, dtype=float)
    terms = n ** 0.5 + n * x
    terms[0] = -math.inf
    best = float(terms.max())
    nu = int(terms.size - 1 - np.argmax(terms[::-1]))
    got = log_max_term(suleimanov_half_series, r)
    assert got.log_mu == best
    assert got.central_index == nu


@pytest.mark.parametrize("family_id,params", [
    ("kovari", {"rho": 0.0}),
    ("kovari", {"rho": -1.0}),
    ("suleimanov", {"epsilon": 0.0}),
    ("suleimanov", {"epsilon": 1.0}),
    ("monomial", {"coeff": 0.0, "degree": 3}),
    ("monomial", {"coeff": 1.0, "degree": -2}),
    ("exp", {"rho": 1.0}),
])
def test_parameter_validation(family_id, params):
    with pytest.raises(ValidationError):
        make_family(FamilySpec(family_id, params))


def test_formula_family_log_coeffs_and_value():
    f = family("formula", formula="-(log(n+1) + n*0 ) - 0", radius=1.0)
    # a second, nontrivial formula: log|a_n| = -n*log(2)
    g = family("formula", formula="-n * log(2)", radius=2.0)
    assert g.log_coeff(3) == pytest.approx(-3 * math.log(2), rel=1e-14)
    assert f.log_coeff(4) == pytest.approx(-math.log(5), rel=1e-14)
    # value cross-check: sum 2^-n r^n = 1/(1 - r/2)
    got = log_positive_value(g, 1.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "n.real",
    "lambda n: n",
    "open('x')",
    "m + 1",
    "[1,2]",
    "n*1" + "0" * 400,  # an integer literal past float range
])
def test_formula_rejects_disallowed_syntax(bad):
    with pytest.raises(ValidationError):
        family("formula", formula=bad)


def test_formula_operator_precedence():
    f = family("formula", formula="1 + 2 * n ** 2 / 8")
    assert f.log_coeff(2) == pytest.approx(2.0)
