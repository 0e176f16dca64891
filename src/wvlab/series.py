"""Coefficient-magnitude power series and log-domain evaluation.

A :class:`PowerSeries` describes an analytic function on ``|z| < radius``
through the logs of its coefficient magnitudes.  All evaluations work on the
term logs ``log|a_n| + n*log(r)``: the largest one is the max-term, their
log-sum-exp is the value of the associated nonnegative-coefficient function.

Truncation is governed by a run-length rule: a horizon ``N`` is accepted once
the 50 terms following it each fall below ``max_term * tol / 50`` and ``N``
lies strictly beyond the current central index.  The rule is deliberately
robust to non-unimodal coefficient sequences but remains a heuristic beyond
the verified window.

Every evaluation, of one radius or a grid, is one walk through the radii
(``_walk``), which scans each radius once: one window of term logs, starting
at the previous radius's final window size, yields the horizon of every
tolerance the caller needs, and the sums run over prefixes of that window.
Until every tolerance has its horizon the window grows in place by an
eighth (at least 512 terms, at most up to a hard cap): only the new terms
are computed, and the horizon search resumes at the first candidate the new
terms can still change.  The accepted horizon is the smallest ``N`` passing
a rule that reads only the prefix ``t[:N+51]``, so results do not depend on
the start or the steps.  A grid may start at ``r = 0``, the single-term
window ``[log|a_0|]``.  Coefficient sources compute only the prefix asked for.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    DomainError,
    TruncationError,
    ValidationError,
)
from .logdomain import LOG_ZERO, log_sum_exp

DEFAULT_TOL = 1e-9
TAIL_RUN = 50
HARD_CAP = 10**8
_FIRST_WINDOW = 512
_GROWTH = 8  # a scan window grows by an eighth per step
_BLOCK = 4096


class CoefficientSource:
    """Provides log coefficient magnitudes for indices ``0..stop-1``.

    ``extend_to`` returns an array of length at least ``stop``; the returned
    prefix must be identical across calls (deterministic queries), and the
    source must be safe to extend under the owner's lock while readers hold
    previously returned arrays.
    """

    def extend_to(self, stop: int) -> np.ndarray:
        raise NotImplementedError


def _reserve(buf: np.ndarray, filled: int, need: int) -> np.ndarray:
    """``buf`` if it holds ``need`` values, else a buffer of ``2 * need``
    values (at most ``HARD_CAP``, at least ``need``) that starts with the
    first ``filled`` values of ``buf``.

    Pages of ``np.empty`` that are never written cost no resident memory,
    so the spare room is free until it is filled.
    """
    if need <= buf.size:
        return buf
    grown = np.empty(max(need, min(2 * need, HARD_CAP)))
    grown[:filled] = buf[:filled]
    return grown


class _PrefixSource(CoefficientSource):
    """A source that fills exactly the prefix asked for, at least
    ``_floor`` values, into one buffer with spare capacity.

    ``_fill(buf, cur, stop)`` writes the values ``cur..stop-1`` into
    ``buf``.  Values already handed out are never written again, and a
    buffer that is outgrown stays alive under the views that readers hold.
    """

    _floor = _FIRST_WINDOW
    _buf = np.empty(0)
    _size = 0

    def _fill(self, buf: np.ndarray, cur: int, stop: int) -> None:
        raise NotImplementedError

    def extend_to(self, stop: int) -> np.ndarray:
        cur = self._size
        if stop > cur:
            stop = max(stop, self._floor)
            self._buf = _reserve(self._buf, cur, stop)
            self._fill(self._buf, cur, stop)
            self._size = stop
        return self._buf[:self._size]


class VectorizedSource(_PrefixSource):
    """Source backed by a vectorized formula ``fn(n_array) -> log|a_n|``."""

    def __init__(self, fn):
        self._fn = fn

    def _fill(self, buf, cur, stop):
        block = np.asarray(self._fn(np.arange(cur, stop, dtype=float)),
                           dtype=float)
        if np.isnan(block).any():
            bad = int(np.flatnonzero(np.isnan(block))[0]) + cur
            raise DomainError(
                f"coefficient formula produced NaN at n={bad}",
                subexpression="log_coeff(n)",
            )
        buf[cur:stop] = block


class ArraySource(_PrefixSource):
    """Source backed by an explicit finite prefix; zero beyond it."""

    _floor = 0

    def __init__(self, values: np.ndarray):
        self._buf = np.asarray(values, dtype=float)
        self._size = self._buf.size

    def _fill(self, buf, cur, stop):
        buf[cur:stop] = LOG_ZERO


@dataclass(frozen=True)
class MaxTermResult:
    """Largest term log and the largest index attaining it."""

    log_mu: float
    central_index: int


@dataclass(frozen=True)
class _Scan:
    log_mu: float
    nu: int
    horizon: int


class PowerSeries:
    """Analytic function given by coefficient magnitude logs.

    Instances are immutable apart from an internal, lock-protected coefficient
    cache, so they are safe to share between concurrent readers.  A series
    keeps no scan state: the walk over several radii (:func:`_walk`) passes
    each scan's final window size as the next scan's start, the window grows
    in place from there, and results are bitwise independent of the start.
    """

    def __init__(
        self,
        source: CoefficientSource,
        radius: float,
        label: str = "series",
        family_id: str | None = None,
        monomial_degree: int | None = None,
    ):
        if not (radius > 0):
            raise ValidationError(f"radius must be positive, got {radius}")
        self._source = source
        self.radius = float(radius)
        self.label = label
        self.family_id = family_id
        self.monomial_degree = monomial_degree
        self._lock = threading.Lock()

    @classmethod
    def from_log_coeffs(
        cls,
        values,
        radius: float = math.inf,
        label: str = "series",
        monomial_degree: int | None = None,
    ) -> "PowerSeries":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("log coefficient array must be 1-d")
        if np.isnan(arr).any() or np.isposinf(arr).any():
            raise ValidationError("log coefficients must be finite or -inf")
        series = cls(ArraySource(arr), radius, label,
                     monomial_degree=monomial_degree)
        series._known_all_zero = not np.any(arr > LOG_ZERO)
        series._known_finite_support = True
        return series

    _known_all_zero = False
    _known_finite_support = False

    def log_coeff(self, n: int) -> float:
        """log|a_n|; ``-inf`` exactly when the coefficient vanishes."""
        if n < 0:
            raise ValidationError(f"coefficient index must be >= 0, got {n}")
        return float(self.log_coeffs(n + 1)[n])

    def log_coeffs(self, stop: int) -> np.ndarray:
        """Read-only view of log|a_n| for ``n < stop``."""
        with self._lock:
            arr = self._source.extend_to(stop)
        return arr[:stop]

    def _fill_terms(self, buf: np.ndarray, x: float, lo: int,
                    hi: int) -> None:
        """Write the term logs ``log|a_n| + n*x`` for ``lo <= n < hi`` into
        ``buf[lo:hi]``.

        Built elementwise, so a window filled piece by piece repeats the
        values of one filled at once bit for bit.
        """
        t = buf[lo:hi]
        np.multiply(np.arange(lo, hi, dtype=float), x, out=t)
        t += self.log_coeffs(hi)[lo:]

    def _terms(self, x: float, stop: int) -> np.ndarray:
        """Term logs ``log|a_n| + n*x`` for ``n < stop``, built at once: the
        window that :meth:`_fill_terms` must repeat piece by piece."""
        t = np.arange(stop, dtype=float)
        t *= x
        t += self.log_coeffs(stop)
        return t

    def __repr__(self):  # pragma: no cover
        return f"PowerSeries({self.label!r}, radius={self.radius})"


def _last_max(t: np.ndarray, lo: int, hi: int, prior: tuple) -> tuple:
    """``max(t[:hi])`` and the last index holding it, given ``prior``, the
    same pair for ``t[:lo]``."""
    if hi <= lo:
        return prior
    w = t[lo:hi]
    m = float(w.max())
    if m < prior[0]:
        return prior
    return m, hi - 1 - int(np.argmax(w[::-1] == m))


def _first_horizon(t: np.ndarray, big: np.ndarray, lo: int,
                   prior: tuple) -> _Scan | None:
    """Smallest accepted horizon ``p >= lo``, given ``big[n - lo] = t[n] >=
    threshold[n]`` for ``n >= lo`` and ``prior`` from :func:`_last_max`."""
    if big.size - np.count_nonzero(big) < TAIL_RUN:
        return None  # too few small terms for a tail run
    # Stretches of constant ``big``: a stretch of small terms that starts at
    # ``lo + edges[i]`` ends a run of big ones at ``p = lo + edges[i] - 1``.
    edges = np.flatnonzero(big[1:] != big[:-1]) + 1
    lengths = np.diff(edges, append=big.size)
    for i in np.flatnonzero(~big[edges] & (lengths >= TAIL_RUN)):
        p = lo + int(edges[i]) - 1
        # Central index up to p: the last index holding max(t[:p+1]).  The
        # horizon is p when p lies beyond it; when p is the central index
        # itself, p + 1 qualifies if one more small term follows.
        log_mu, nu = _last_max(t, lo, p + 1, prior)
        if p > nu:
            return _Scan(log_mu, nu, p)
        if lengths[i] >= TAIL_RUN + 1:
            if t[p + 1] >= t[p]:
                nu = p + 1
            return _Scan(float(t[nu]), nu, p + 1)
    return None


def _find_horizons(t: np.ndarray, log_tail_tols, lo: int = 0,
                   prior: tuple = (LOG_ZERO, -1)) -> list:
    """Smallest accepted horizon within a term prefix, per tolerance.

    Accepts the smallest ``N`` strictly beyond the running central index such
    that the 50 terms after ``N`` each sit below ``running_max +
    log_tail_tol``.  Ties for the max break upward.  ``None`` marks a
    tolerance with no accepted horizon inside ``t``.

    Only the candidates ``N >= lo`` are examined; ``prior`` is
    ``_last_max(t, 0, lo, ...)``.  A search that resumes on a longer window
    passes ``lo = old_size - TAIL_RUN - 1``: every earlier candidate has its
    50 following terms inside the old window and was already decided.

    The running max at an index lies between the max before its block and
    the max at the block's end.  Rounding is monotone, so a block whose
    minimum clears ``end_max + log_tail_tol`` is all big, one whose maximum
    stays below ``prior_max + log_tail_tol`` is all small, and only the
    blocks in between need the running max term by term.
    """
    seg = t[lo:]
    starts = np.arange(0, seg.size, _BLOCK)
    bmax = np.maximum.reduceat(seg, starts)
    bmin = np.minimum.reduceat(seg, starts)
    end_max = np.maximum.accumulate(bmax)
    np.maximum(end_max, prior[0], out=end_max)
    prior_max = np.concatenate(([prior[0]], end_max[:-1]))
    found = {}
    for ltt in log_tail_tols:
        if ltt in found:
            continue
        all_big = bmin >= end_max + ltt
        big = np.repeat(all_big, _BLOCK)[:seg.size]
        for b in np.flatnonzero(~all_big & (bmax >= prior_max + ltt)):
            i = b * _BLOCK
            blk = seg[i:i + _BLOCK]
            thr = np.maximum.accumulate(blk)
            np.maximum(thr, prior_max[b], out=thr)
            thr += ltt
            big[i:i + _BLOCK] = blk >= thr
        found[ltt] = _first_horizon(t, big, lo, prior)
    return [found[ltt] for ltt in log_tail_tols]


def _scan(series: PowerSeries, x: float, tols,
          start: int = _FIRST_WINDOW) -> tuple:
    """Scan one window of term logs at ``x = log r`` for every tolerance.

    The window starts at ``start`` terms (at least 512, at most
    ``HARD_CAP``) and grows in place by a ``1/_GROWTH`` share (at least 512
    terms) until each tolerance in ``tols`` has an accepted horizon inside
    it.  Each step computes only the new terms, and the search resumes
    where the last one could still change its answer (see
    :func:`_find_horizons`); a tolerance keeps the horizon it found.
    Returns ``(scans, t, stop)``: one :class:`_Scan` per tolerance, the term
    logs of the final window and its size, which is the next radius's
    start.  :func:`_walk` checks the series and the tolerances.
    """
    log_tail_tols = [math.log(tol / TAIL_RUN) for tol in tols]
    scans = [None] * len(tols)
    lo, prior = 0, (LOG_ZERO, -1)
    stop = min(max(start, _FIRST_WINDOW), HARD_CAP)
    buf = _reserve(np.empty(0), 0, stop)
    series._fill_terms(buf, x, 0, stop)
    while True:
        t = buf[:stop]
        todo = [i for i, s in enumerate(scans) if s is None]
        found = _find_horizons(t, [log_tail_tols[i] for i in todo], lo, prior)
        for i, s in zip(todo, found):
            scans[i] = s
        if None not in scans:
            return scans, t, stop
        if stop >= HARD_CAP:
            raise TruncationError(
                f"no certified horizon for {series.label!r} at log r={x:g} "
                f"within {HARD_CAP} terms",
                horizon=stop,
            )
        resume = max(stop - TAIL_RUN - 1, 0)
        lo, prior = resume, _last_max(t, lo, resume, prior)
        grown = min(stop + max(stop // _GROWTH, _FIRST_WINDOW), HARD_CAP)
        buf = _reserve(buf, stop, grown)
        series._fill_terms(buf, x, stop, grown)
        stop = grown


def log_radius(r: float) -> float:
    """``x = log r`` for ``r >= 0``; ``r = 0`` maps to ``x = -inf``."""
    if not r >= 0:
        raise ValidationError(f"radius must be >= 0, got {r}")
    return math.log(r) if r > 0 else -math.inf


def _walk(series: PowerSeries, xs, tols, point, scale: float = 1.0) -> list:
    """``point(x, scans, t, log_F)`` at each ``x = log r`` of ``xs``, in order.

    The one walk through radii; nothing else calls :func:`_scan`.  It checks
    the series and the tolerances once (scans run at ``tol * scale``; the
    moment sums ask for ``scale = 1e-6``; errors name ``tol``), then each x.
    ``x = -inf`` (``r = 0``) is the single-term window ``[log|a_0|]``, with
    the horizon a monomial has at every radius (1 for other series); any
    other x is one scan, starting from the previous radius's final window.
    ``scans`` holds one :class:`_Scan` per tolerance, ``t`` the window cut
    at the last tolerance's horizon and ``log_F`` its log-sum-exp.  ``point``
    may overwrite ``t`` but must not keep it: the walk drops each window
    before it scans the next radius, so a grid holds one window at a time.
    """
    if series._known_all_zero:
        raise DegenerateSeriesError(
            f"series {series.label!r} has no nonzero coefficient")
    for tol in tols:
        if not 0 < tol < math.inf:  # also rejects nan
            raise ValidationError(
                f"tolerance must be finite and > 0, got {tol!r}")
        if not tol * scale > 0:
            raise ValidationError(
                f"tolerance must not be so small that the scans' "
                f"tol*{scale:g} underflows to 0, got {tol!r}")
    tols = [tol * scale for tol in tols]
    log_R = math.log(series.radius)
    start, out = _FIRST_WINDOW, []
    for x in xs:
        x = float(x)
        if not x < math.inf:
            raise ValidationError(f"x must be finite, got {x}")
        if x >= log_R:
            raise DomainError(f"x={x:g} is at or beyond the convergence "
                              f"boundary log R={log_R:g}")
        if x == -math.inf:
            log_F = series.log_coeff(0)
            t = np.array([log_F])
            scans = [_Scan(log_F, 0, (series.monomial_degree or 0) + 1)
                     ] * len(tols)
        else:
            scans, t, start = _scan(series, x, tols, start)
            t = t[:scans[-1].horizon + 1]
            log_F = log_sum_exp(t)
        out.append(point(x, scans, t, log_F))
        del t  # no window outlives its point
    return out


def _at(series: PowerSeries, r: float, tols, point):
    """:func:`_walk` at the one radius ``r``."""
    (value,) = _walk(series, (log_radius(r),), tols, point)
    return value


def truncation_horizon(series: PowerSeries, r: float, tol: float) -> int:
    """Smallest accepted summation horizon at radius ``r``.

    The exact value is implementation-reported, not contractual; what the
    contract guarantees is that the 50 terms after the horizon each fall
    below ``mu * tol / 50`` and the horizon exceeds the central index.
    """
    return _at(series, r, (tol,), lambda x, scans, t, log_F: scans[0].horizon)


def log_max_term(series: PowerSeries, r: float) -> MaxTermResult:
    """Max term log and central index at radius ``r``; ties break upward."""
    return _at(series, r, (DEFAULT_TOL,), lambda x, scans, t, log_F:
               MaxTermResult(scans[0].log_mu, scans[0].nu))


def log_positive_value(series: PowerSeries, r: float,
                       tol: float = DEFAULT_TOL) -> float:
    """log of ``sum_n |a_n| r^n`` with relative truncation error <= tol."""
    return _at(series, r, (tol,), lambda x, scans, t, log_F: log_F)


def max_modulus_sampled(
    series: PowerSeries,
    r: float,
    samples: int,
    phases=None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Lower bound for log max|f| on the circle ``|z| = r``.

    Maximizes |f| over ``samples`` equally spaced points.  ``phases`` gives
    the coefficient arguments (array or vectorized callable over n); with the
    default of zero phases the maximum sits at ``z = r`` and the result equals
    :func:`log_positive_value` up to tolerance.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")

    def point(x, scans, t, log_F):
        if t.size == 1:  # the single-term window: |f| = |a_0| everywhere
            return log_F
        n = np.arange(t.size, dtype=float)
        m = float(np.max(t))
        w = np.exp(t - m)
        if phases is None:
            phi = 0.0
        elif callable(phases):
            phi = np.asarray(phases(n), dtype=float)
        else:
            phi = np.zeros(n.size)
            given = np.asarray(phases, dtype=float)
            phi[: min(given.size, n.size)] = given[: n.size]
        best = 0.0
        for k in range(samples):
            theta = 2.0 * math.pi * k / samples
            val = abs(np.sum(w * np.exp(1j * (n * theta + phi))))
            if val > best:
                best = val
        if best == 0.0:
            return LOG_ZERO
        return m + math.log(best)

    return _at(series, r, (tol,), point)
