"""Coefficient distribution at a point and the pointwise concentration chain.

For a series with nonnegative coefficient magnitudes and ``x = log r``, the
masses ``p_n = a_n e^{nx} / F(x)`` define an integer-valued random variable
whose mean and variance are the first two log-derivatives of ``g = log F``.
Chebyshev's inequality then confines most of ``F`` to a window of about
``2c*sqrt(variance)`` integers around the mean, each term at most the max
term, which yields an explicit pointwise constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .logdomain import log_sum_exp
from .series import _FIRST_WINDOW, DEFAULT_TOL, PowerSeries, _scan


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


def _point(series: PowerSeries, x: float, tol: float,
           start: int = _FIRST_WINDOW):
    """Scan, term logs up to the horizon, log F and the final window size."""
    if not math.isfinite(x):
        raise ValidationError(f"x must be finite, got {x}")
    if x >= math.log(series.radius):
        raise DomainError(
            f"x={x:g} is at or beyond the convergence boundary "
            f"log R={math.log(series.radius):g}"
        )
    # Moment sums weight the tail by (n - mean)^2, so the scan runs far
    # tighter than the requested tolerance; the horizon only grows by a few
    # dozen indices.
    moment_tol = tol * 1e-6
    if not moment_tol > 0:
        raise ValidationError(
            f"tolerance must be > 0 and not so small that the moment "
            f"scans' tol*1e-6 underflows to 0, got {tol!r}")
    (s,), t, stop = _scan(series, x, (moment_tol,), start)
    t = t[:s.horizon + 1]
    return s, t, log_sum_exp(t), stop


def _moments(t: np.ndarray, g: float) -> tuple:
    """Mean and centered variance of the masses ``exp(t - g)``.

    Computing ``E X^2 - (E X)^2`` cancels catastrophically once the mean is
    large (it reaches 1e6 near the boundary), so g2 sums ``(n - g1)^2 p_n``
    around the already-computed mean.
    """
    p = t - g
    np.exp(p, out=p)
    n = np.arange(t.size, dtype=float)
    g1 = float(np.dot(n, p))
    n -= g1
    n *= n
    return g1, float(np.dot(n, p))


def distribution(series: PowerSeries, x: float,
                 tol: float = DEFAULT_TOL) -> CoeffDistribution:
    """Coefficient distribution of ``series`` at ``x = log r``."""
    _, t, g, _ = _point(series, x, tol)
    return CoeffDistribution(x=x, log_F=g, log_mass=t - g)


def stats(series: PowerSeries, x: float,
          tol: float = DEFAULT_TOL) -> RosenbloomStats:
    """(g, g', g'') at x; the variance uses a centered second pass."""
    return stats_grid(series, [x], tol)[0]


def stats_grid(series: PowerSeries, x_grid,
               tol: float = DEFAULT_TOL) -> list[RosenbloomStats]:
    """:func:`stats` at each x in order; each scan starts from the previous
    x's final window."""
    out = []
    start = _FIRST_WINDOW
    for x in x_grid:
        _, t, g, start = _point(series, x, tol, start)
        g1, g2 = _moments(t, g)
        out.append(RosenbloomStats(g=g, g1=g1, g2=g2))
    return out


def _check_c(c: float) -> None:
    if not 1 < c < math.inf:  # an infinite c overflows floor(2c*sqrt(g2))
        raise ValidationError(
            f"c must be {'finite' if c > 1 else '> 1'}, got {c}")


def window_sum(series: PowerSeries, x: float, c: float,
               tol: float = DEFAULT_TOL) -> float:
    """log of the term sum over integers with ``|n - g1| < c*sqrt(g2)``."""
    _check_c(c)
    _, t, g, _ = _point(series, x, tol)
    g1, g2 = _moments(t, g)
    if g2 <= 0:
        raise ValidationError(
            "window requires positive variance (series must not be a monomial)"
        )
    return _window_sum_from(t, g1, g2, c)


def _window_sum_from(t: np.ndarray, g1: float, g2: float, c: float) -> float:
    half = c * math.sqrt(g2)
    lo = max(0, int(math.floor(g1 - half)) + 1)
    hi = min(t.size - 1, int(math.ceil(g1 + half)) - 1)
    if hi < lo:
        raise RuntimeError(
            f"empty concentration window at g1={g1:g}, g2={g2:g}, c={c:g}"
        )
    return log_sum_exp(t[lo: hi + 1])


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
    reports = []
    start = _FIRST_WINDOW
    for x in x_grid:
        s, t, g, start = _point(series, float(x), tol, start)
        g1, g2 = _moments(t, g)
        if g2 <= 0:
            raise ValidationError(
                f"zero variance at x={x:g}: chain verification refuses "
                "monomial-like inputs"
            )
        log_w = _window_sum_from(t, g1, g2, c)
        count_bound = int(math.floor(2 * c * math.sqrt(g2))) + 1
        margin_cheb = log_w - (math.log1p(-(c ** -2)) + g)
        margin_count = math.log(count_bound) + s.log_mu - log_w
        c_const = count_bound / ((1 - c ** -2) * math.sqrt(g2))
        margin_overall = (math.log(c_const) + s.log_mu
                          + 0.5 * math.log(g2)) - g
        reports.append(LemmaPointReport(
            x=float(x), g=g, g1=g1, g2=g2, log_mu=s.log_mu,
            log_window=log_w, count_bound=count_bound,
            margin_chebyshev=margin_cheb, margin_count=margin_count,
            margin_overall=margin_overall, c_constant=c_const,
            holds=(margin_cheb >= -1e-9 and margin_count >= -1e-9),
        ))
    return reports
