import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvlab.logdomain import _FSUM_CUTOFF, LOG_ZERO, _sum_exp, log_sum_exp


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), the two-term case done by hand."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def test_log_sum_exp_basic():
    assert log_sum_exp([]) == LOG_ZERO
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)
    assert log_sum_exp([0.0, LOG_ZERO]) == 0.0


def test_log_sum_exp_huge_shift():
    # linear domain would overflow; the shift keeps it exact
    assert log_sum_exp([1e6, 1e6 - math.log(2)]) == pytest.approx(
        1e6 + math.log(1.5), rel=1e-15)


finite_logs = st.lists(
    st.floats(min_value=-500, max_value=500, allow_nan=False), min_size=1,
    max_size=60)


@given(finite_logs)
@settings(max_examples=300)
def test_log_sum_exp_bracket(values):
    # between the max element and max + log(count)
    got = log_sum_exp(values)
    m = max(values)
    assert m <= got <= m + math.log(len(values)) + 1e-12


@given(finite_logs)
@settings(max_examples=200)
def test_log_sum_exp_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert log_sum_exp(values) == log_sum_exp(shuffled)


@given(st.floats(-300, 300), st.floats(-300, 300))
@settings(max_examples=200)
def test_log_add_matches_linear(a, b):
    assert log_add(a, b) == pytest.approx(
        log_sum_exp([a, b]), rel=1e-14, abs=1e-14)


def test_ordering_matches_linear_domain():
    # ordering on logs agrees with ordering on the encoded magnitudes
    vals = [LOG_ZERO, -2.0, 0.0, 3.5]
    mags = [0.0, math.exp(-2), 1.0, math.exp(3.5)]
    assert sorted(vals) == vals
    assert sorted(mags) == mags


@pytest.mark.parametrize("size", [1000, _FSUM_CUTOFF + 1])
def test_sum_exp_leaves_the_values_in_its_scratch(size):
    # exact and pairwise alike: a caller weights the values it summed
    t = np.linspace(-30.0, 0.0, size)
    out = np.full(size + 5, 7.0)
    _sum_exp(t, 0.5, out)
    assert np.array_equal(out[:size], np.exp(t - 0.5))
    assert np.all(out[size:] == 7.0)
