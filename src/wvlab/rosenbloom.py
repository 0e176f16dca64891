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
the point mass at 0 (and undefined when ``a_0 = 0``).  Pass 2 is one sweep
(:func:`_sweep`): ``series._Window.read`` reads each window block once, and
``g``, the mean and the variance all come from the masses it forms there.
The block sums are combined with ``math.fsum``; the products run on
``np.einsum``, not BLAS, so the bits do not depend on the BLAS thread
count.  The window's quiet blocks follow the rule that ``series``
describes, with four sums to leave unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .logdomain import LOG_ZERO, absorbs
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
    """``point(window, st)`` at each x of ``xs``, in order: the
    ``series._Window`` of term logs up to the moment horizon and the
    :class:`RosenbloomStats` of :func:`_sweep`."""
    def masses(window):
        st = _sweep(window)
        if st.g == LOG_ZERO:
            raise DomainError(f"F = 0 at x={window.x:g}: the coefficient "
                              "masses are undefined")
        return point(window, st)

    return _walk(series, xs, tol, masses, _MOMENT_SCALE)


def _sweep(window) -> RosenbloomStats:
    """``g = log F`` and the mean and variance of the masses, from one read
    of each window block (``window.read``).

    A block's masses ``e = exp(t - log_mu)`` and their sum ``s0`` are those
    that ``window.log_F`` sums, so ``g`` keeps its bits.  From the same
    ``e`` come the block's first moment ``s1 = sum n e``, its mean ``mu_b =
    s1 / s0`` and its second moment about that mean ``m2 = sum (n - mu_b)^2
    e`` (:func:`_moments`).  The blocks merge by the pairwise update of
    Chan, Golub and LeVeque (1979): with ``S0 = sum s0``, ``g1 = sum s1 /
    S0`` and ``g2 = (sum m2 + sum s0 (mu_b - g1)^2) / S0``.  Every term is
    nonnegative, so nothing cancels, as ``E X^2 - (E X)^2`` would once the
    mean is large (it reaches 1e6 near the boundary).  The products run on
    ``np.einsum``, not BLAS, so the bits do not depend on its threads.
    """
    m = window.log_mu
    if not math.isfinite(m):  # F = 0: the sources reject +inf term logs
        return RosenbloomStats(m, math.nan, math.nan)
    s0, s1, mu_b, m2 = zip(*window.read(_moments, _absorbed))
    total, g1, chan = _merge(s0, s1, mu_b)
    g2 = (math.fsum(m2) + math.fsum(chan)) / total
    return RosenbloomStats(m + math.log(total), g1, g2)


def _moments(lo: int, e: np.ndarray, s0: float) -> tuple:
    """``(s0, s1, mu_b, m2)`` of the block from ``lo`` whose masses ``e``
    sum to ``s0`` (:func:`_sweep`)."""
    n = np.arange(lo, lo + e.size, dtype=float)
    s1 = float(np.einsum("i,i->", n, e))
    mu_b = s1 / s0
    n -= mu_b
    n *= n
    return s0, s1, mu_b, float(np.einsum("i,i->", n, e))


def _merge(s0, s1, mu_b) -> tuple:
    """``S0``, ``g1`` and the Chan terms ``s0 (mu_b - g1)^2`` of blocks."""
    total = math.fsum(s0)
    g1 = math.fsum(s1) / total
    return total, g1, [s * (mu - g1) ** 2 for s, mu in zip(s0, mu_b)]


def _absorbed(parts, end: int, beta: float) -> bool:
    """Whether the quiet blocks of ``[0, end)``, whose ``s0`` total at most
    ``beta``, leave the four sums of the blocks ``parts`` unchanged
    (:func:`~wvlab.logdomain.absorbs`): their indices and means lie in
    ``[0, end)``, so their ``s1`` total at most ``beta * end``, their
    ``m2`` at most ``beta * end^2`` and their Chan terms at most ``beta *
    max(g1, end)^2``."""
    s0, s1, mu_b, m2 = zip(*parts)
    _, g1, chan = _merge(s0, s1, mu_b)
    return all(absorbs(v, beta * w) for v, w in (
        (s0, 1.0), (s1, end), (m2, end ** 2), (chan, max(g1, end) ** 2)))


def distribution(series: PowerSeries, x: float,
                 tol: float = DEFAULT_TOL) -> CoeffDistribution:
    """Coefficient distribution of ``series`` at ``x = log r``."""
    (dist,) = _walk_masses(series, (x,), tol, lambda window, st:
                           CoeffDistribution(x=window.x, log_F=st.g, log_mass=(
                               np.concatenate([t - st.g for _, t in
                                               window.blocks()]))))
    return dist


def stats(series: PowerSeries, x: float,
          tol: float = DEFAULT_TOL) -> RosenbloomStats:
    """(g, g', g'') at x, from one sweep of the window (:func:`_sweep`)."""
    return stats_grid(series, [x], tol)[0]


def stats_grid(series: PowerSeries, x_grid,
               tol: float = DEFAULT_TOL) -> list[RosenbloomStats]:
    """:func:`stats` at each x in order, in one walk."""
    return _walk_masses(series, x_grid, tol, lambda window, st: st)


def _check_c(c: float) -> None:
    if not 1 < c < math.inf:  # an infinite c overflows floor(2c*sqrt(g2))
        raise ValidationError(
            f"c must be {'finite' if c > 1 else '> 1'}, got {c}")


def window_sum(series: PowerSeries, x: float, c: float,
               tol: float = DEFAULT_TOL) -> float:
    """log of the term sum over integers with ``|n - g1| < c*sqrt(g2)``."""
    _check_c(c)

    def point(window, st):
        if st.g2 <= 0:
            raise ValidationError("window requires positive variance "
                                  "(series must not be a monomial)")
        return _window_sum_from(window, st, c)

    (log_w,) = _walk_masses(series, (x,), tol, point)
    return log_w


def _window_sum_from(window, st: RosenbloomStats, c: float) -> float:
    """log of the term sum over ``|n - g1| < c*sqrt(g2)``.  A range that
    holds the central index ``nu`` has the max term ``log_mu`` as its max,
    so its blocks are read once, for the sum alone."""
    g1, g2 = st.g1, st.g2
    half = c * math.sqrt(g2)
    if not 2 * half < math.inf:  # also the lemma's count bound
        raise DomainError(
            f"window width 2c*sqrt(g2) overflows the float range at "
            f"x={window.x:g}: c={c:g}, g2={g2:g}")
    lo = max(0, int(math.floor(g1 - half)) + 1)
    hi = min(window.size - 1, int(math.ceil(g1 + half)) - 1)
    if hi < lo:
        raise RuntimeError(
            f"empty concentration window at g1={g1:g}, g2={g2:g}, c={c:g}"
        )
    return window.log_sum_exp(
        lo, hi + 1, window.log_mu if lo <= window.nu <= hi else None)


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

    def point(window, st):
        x, g, g1, g2, log_mu = window.x, st.g, st.g1, st.g2, window.log_mu
        if g2 <= 0:
            raise ValidationError(
                f"zero variance at x={x:g}: chain verification refuses "
                "monomial-like inputs"
            )
        log_w = _window_sum_from(window, st, c)
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
