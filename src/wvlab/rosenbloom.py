"""Coefficient distribution at a point and the pointwise concentration chain.

For a series with nonnegative coefficient magnitudes and ``x = log r``, the
masses ``p_n = a_n e^{nx} / F(x)`` define an integer-valued random variable
whose mean and variance are the first two log-derivatives of ``g = log F``.
Chebyshev's inequality then confines most of ``F`` to a window of about
``2c*sqrt(variance)`` integers around the mean, each term at most the max
term, which yields an explicit pointwise constant.

Every function here walks its x values through ``series._walk``: one scan
per x, each starting from the previous x's final window, and ``x = -inf``
(``r = 0``) is the single-term window ``[log|a_0|]``, where the masses are
the point mass at 0 (and undefined when ``a_0 = 0``).  The moment sums are
formed per window block with ``np.dot`` and combined across blocks with
``math.fsum``, so a window of one block (at most 2**19 + 51 terms) gives
the bits of one ``np.dot`` over the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .logdomain import LOG_ZERO
from .series import DEFAULT_TOL, PowerSeries, _walk

# Moment sums weight the tail by (n - mean)^2, so their scans run far
# tighter than the requested tolerance; the horizon only grows by a few
# dozen indices.
_MOMENT_SCALE = 1e-6


@dataclass(frozen=True)
class CoeffDistribution:
    """Masses of the coefficient distribution at ``x = log r``.

    ``log_mass[n]`` is ``log p_n``; masses sum to 1 within 1e-12 over the
    truncation horizon and every entry is <= 0.
    """

    x: float
    log_F: float
    log_mass: np.ndarray


@dataclass(frozen=True)
class RosenbloomStats:
    """g = log F(x); g1, g2 its first two derivatives (mean and variance)."""

    g: float
    g1: float
    g2: float

    @property
    def zero_variance(self) -> bool:
        return self.g2 == 0.0


@dataclass(frozen=True)
class LemmaPointReport:
    """Both links of the pointwise chain at one x, margins in log domain.

    ``margin_*`` are slacks (>= 0 means the link holds); ``c_constant`` is
    the explicit per-point constant (floor(2c*sqrt(g2)) + 1) /
    ((1 - c^-2) * sqrt(g2)) closing the chain F <= C * mu * sqrt(g2).
    """

    x: float
    g: float
    g1: float
    g2: float
    log_mu: float
    log_window: float
    count_bound: int
    margin_chebyshev: float
    margin_count: float
    margin_overall: float
    c_constant: float
    holds: bool


def _walk_masses(series: PowerSeries, xs, tol: float, point) -> list:
    """``point(x, log_mu, window, g)`` at each x of ``xs``, in order: the
    ``series._Window`` of term logs up to the moment horizon and ``g = log
    F``."""
    def masses(x, scans, window):
        g = window.log_F
        if g == LOG_ZERO:
            raise DomainError(
                f"F = 0 at x={x:g}: the coefficient masses are undefined")
        return point(x, scans[0].log_mu, window, g)

    return _walk(series, xs, (tol,), masses, _MOMENT_SCALE)


def _moments(window, g: float) -> tuple:
    """Mean and centered variance of the masses ``exp(t - g)``.

    Computing ``E X^2 - (E X)^2`` cancels catastrophically once the mean is
    large (it reaches 1e6 near the boundary), so g2 sums ``(n - g1)^2 p_n``
    around the already-computed mean, in a second pass over the blocks.
    """
    def moment(weight) -> float:
        parts = []
        for lo, t in window.blocks():
            p = np.subtract(t, g, out=window.scratch(t.size))
            np.exp(p, out=p)  # the masses p_n
            n = np.arange(lo, lo + t.size, dtype=float)
            parts.append(float(np.dot(weight(n), p)))
        return math.fsum(parts)

    def centred(n):
        n -= g1
        n *= n
        return n

    g1 = moment(lambda n: n)
    return g1, moment(centred)


def distribution(series: PowerSeries, x: float,
                 tol: float = DEFAULT_TOL) -> CoeffDistribution:
    """Coefficient distribution of ``series`` at ``x = log r``."""
    (dist,) = _walk_masses(series, (x,), tol, lambda x, log_mu, window, g:
                           CoeffDistribution(x=x, log_F=g, log_mass=(
                               np.concatenate([t - g for _, t in
                                               window.blocks()]))))
    return dist


def stats(series: PowerSeries, x: float,
          tol: float = DEFAULT_TOL) -> RosenbloomStats:
    """(g, g', g'') at x; the variance uses a centered second pass."""
    return stats_grid(series, [x], tol)[0]


def stats_grid(series: PowerSeries, x_grid,
               tol: float = DEFAULT_TOL) -> list[RosenbloomStats]:
    """:func:`stats` at each x in order, in one walk."""
    return _walk_masses(series, x_grid, tol, lambda x, log_mu, window, g:
                        RosenbloomStats(g, *_moments(window, g)))


def _check_c(c: float) -> None:
    if not 1 < c < math.inf:  # an infinite c overflows floor(2c*sqrt(g2))
        raise ValidationError(
            f"c must be {'finite' if c > 1 else '> 1'}, got {c}")


def window_sum(series: PowerSeries, x: float, c: float,
               tol: float = DEFAULT_TOL) -> float:
    """log of the term sum over integers with ``|n - g1| < c*sqrt(g2)``."""
    _check_c(c)

    def point(x, log_mu, window, g):
        g1, g2 = _moments(window, g)
        if g2 <= 0:
            raise ValidationError("window requires positive variance "
                                  "(series must not be a monomial)")
        return _window_sum_from(window, g1, g2, c)

    (log_w,) = _walk_masses(series, (x,), tol, point)
    return log_w


def _window_sum_from(window, g1: float, g2: float, c: float) -> float:
    half = c * math.sqrt(g2)
    lo = max(0, int(math.floor(g1 - half)) + 1)
    hi = min(window.size - 1, int(math.ceil(g1 + half)) - 1)
    if hi < lo:
        raise RuntimeError(
            f"empty concentration window at g1={g1:g}, g2={g2:g}, c={c:g}"
        )
    return window.log_sum_exp(lo, hi + 1)


def verify_pointwise_lemma(
    series: PowerSeries,
    x_grid,
    c: float,
    tol: float = DEFAULT_TOL,
) -> list[LemmaPointReport]:
    """Check both links of the concentration chain on a grid of x values.

    Link (i), Chebyshev: ``(1 - c^-2) F(x) <= window_sum``.
    Link (ii), count:    ``window_sum <= (floor(2c*sqrt(g2)) + 1) * mu``.

    The closing constant uses the true integer window count bound; the
    asymptotic form ``2c*sqrt(g2)`` undercounts by up to one when the
    variance is small, so the corrected count keeps the chain literally true
    at every point.
    """
    _check_c(c)

    def point(x, log_mu, window, g):
        g1, g2 = _moments(window, g)
        if g2 <= 0:
            raise ValidationError(
                f"zero variance at x={x:g}: chain verification refuses "
                "monomial-like inputs"
            )
        log_w = _window_sum_from(window, g1, g2, c)
        count_bound = int(math.floor(2 * c * math.sqrt(g2))) + 1
        margin_cheb = log_w - (math.log1p(-(c ** -2)) + g)
        margin_count = math.log(count_bound) + log_mu - log_w
        c_const = count_bound / ((1 - c ** -2) * math.sqrt(g2))
        margin_overall = (math.log(c_const) + log_mu
                          + 0.5 * math.log(g2)) - g
        return LemmaPointReport(
            x=x, g=g, g1=g1, g2=g2, log_mu=log_mu,
            log_window=log_w, count_bound=count_bound,
            margin_chebyshev=margin_cheb, margin_count=margin_count,
            margin_overall=margin_overall, c_constant=c_const,
            holds=(margin_cheb >= -1e-9 and margin_count >= -1e-9),
        )

    return _walk_masses(series, x_grid, tol, point)
