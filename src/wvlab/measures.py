"""Interval sets on [0, R) and the three exceptional-set size notions.

Size notions for a finite union E of half-open intervals:

* h-logarithmic measure: integral of the weight h over E (an extra 1/r
  factor enters only when R is infinite; for finite R it tends to 1 at the
  boundary and the reference quantities omit it).  The integrand is
  ``HSpec.weight``, the array form each ``bounds.H_TABLE`` row declares.
* logarithmic density at r: normalized disk-weight integral over E up to r.
* final density at r: Lebesgue length of E beyond r divided by 1 - r
  (exact endpoint arithmetic, no quadrature).

Quadrature is adaptive trapezoid refinement with Richardson extrapolation,
with geometric subdivision toward the boundary where the weights blow up.
An interval actually touching R is reported as divergent: every admissible
weight has a divergent tail there, and no quadrature can certify divergence,
so the flag keeps reports honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import HSpec, h_disk
from .errors import DivergenceError, DomainError, ValidationError

DEFAULT_MEASURE_TOL = 1e-9
DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint half-open [lo, hi) subintervals of [0, radius)."""

    intervals: tuple
    radius: float

    @classmethod
    def from_pairs(cls, pairs, radius: float) -> "IntervalSet":
        """Normalize: sort, merge overlapping and adjacent, validate range."""
        if not radius > 0:
            raise ValidationError(f"radius must be positive, got {radius}")
        cleaned = []
        for lo, hi in pairs:
            lo, hi = float(lo), float(hi)
            if not (0 <= lo < hi <= radius):
                raise ValidationError(
                    f"interval [{lo:g}, {hi:g}) not inside [0, {radius:g})"
                )
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[list[float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged), float(radius))

    @classmethod
    def empty(cls, radius: float) -> "IntervalSet":
        return cls.from_pairs([], radius)

    @property
    def touches_boundary(self) -> bool:
        return bool(self.intervals) and self.intervals[-1][1] == self.radius

    def total_length(self) -> float:
        return math.fsum(hi - lo for lo, hi in self.intervals)

    def clip(self, lo: float, hi: float) -> "IntervalSet":
        """Intersection with [lo, hi)."""
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 < b2:
                out.append((a2, b2))
        return IntervalSet(tuple(out), self.radius)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if other.radius != self.radius:
            raise ValidationError("cannot union interval sets on different [0, R)")
        return IntervalSet.from_pairs(
            list(self.intervals) + list(other.intervals), self.radius
        )

    def to_text(self) -> str:
        lines = [f"# interval set on [0, {self.radius:.17g})"]
        lines += [f"{lo:.17g} {hi:.17g}" for lo, hi in self.intervals]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, radius: float | None = None) -> "IntervalSet":
        """Parse the one-interval-per-line format; '#' starts a comment."""
        pairs = []
        top = 0.0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValidationError(
                    f"line {lineno}: expected 'lo hi', got {raw!r}"
                )
            try:
                lo, hi = float(fields[0]), float(fields[1])
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: endpoints must be decimal literals"
                ) from None
            pairs.append((lo, hi))
            top = max(top, hi)
        if radius is None:
            radius = 1.0 if top <= 1.0 else math.inf
        return cls.from_pairs(pairs, radius)


@dataclass(frozen=True)
class MeasureOutcome:
    """Measure value or an explicit divergence flag, never a fake number."""

    value: float | None
    divergent: bool = False
    note: str = ""

    def require_value(self) -> float:
        if self.divergent or self.value is None:
            raise DomainError(f"measure is divergent: {self.note}")
        return self.value


# ---------------------------------------------------------------------------
# Quadrature


def _integrate_smooth(f, a: float, b: float, abs_tol: float,
                      max_level: int = 24) -> float:
    """Trapezoid refinement with Richardson extrapolation on [a, b].

    ``f`` must accept a numpy array.  Intended for integrands smooth on the
    closed interval; boundary blow-ups are handled by the caller's geometric
    splitting.  Raises :class:`DivergenceError` when ``max_level``
    refinements leave two successive extrapolations further apart than
    ``abs_tol`` (and than 1e-16 relative).
    """
    if a == b:
        return 0.0
    fa, fb = f(np.array([a]))[0], f(np.array([b]))[0]
    t_prev = 0.5 * (b - a) * (fa + fb)
    r_prev = t_prev
    panels = 1
    for _ in range(max_level):
        panels *= 2
        xs = a + (b - a) * (np.arange(1, panels, 2) / panels)
        t_cur = 0.5 * t_prev + (b - a) / panels * float(np.sum(f(xs)))
        r_cur = t_cur + (t_cur - t_prev) / 3.0
        if abs(r_cur - r_prev) <= max(abs_tol, 1e-16 * abs(r_cur)) \
                and panels >= 8:
            return r_cur
        t_prev, r_prev = t_cur, r_cur
    raise DivergenceError(
        f"quadrature on [{a!r}, {b!r}] did not converge to the tolerance "
        f"{abs_tol:g} within {max_level} refinement levels")


def _split_toward_boundary(lo: float, hi: float, R: float) -> list:
    """Cut [lo, hi] into cells whose weight variation stays bounded.

    For finite R the gap to the boundary halves per cell; for infinite R the
    coordinate doubles per cell.
    """
    cells = []
    if math.isinf(R):
        cur = lo
        while hi > 2.0 * cur and cur > 0:
            nxt = 2.0 * cur
            cells.append((cur, nxt))
            cur = nxt
        cells.append((cur, hi))
        return cells
    gap_lo, gap_hi = R - lo, R - hi
    cur = lo
    while (R - cur) > 2.0 * gap_hi and (R - cur) > 1e-300:
        nxt = R - 0.5 * (R - cur)
        if nxt >= hi:
            break
        cells.append((cur, nxt))
        cur = nxt
    cells.append((cur, hi))
    return cells


def h_log_measure(E: IntervalSet, h: HSpec,
                  tol: float = DEFAULT_MEASURE_TOL) -> MeasureOutcome:
    """Weight integral of h over E intersected with [rho_start, R)."""
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValidationError(
            f"tolerance must be finite and > 0, got {tol!r}")
    R = h.radius
    if E.radius > R and any(hi > R for _, hi in E.intervals):
        raise DomainError(
            f"h weight {h.h_id!r} undefined beyond r={R:g} but the set "
            f"reaches {E.intervals[-1][1]:g}"
        )
    clipped = E.clip(h.rho_start, min(E.radius, R))
    if clipped.intervals and clipped.intervals[-1][1] == R:
        # The admissible weights all have divergent tails at R, and no
        # quadrature could certify divergence anyway.
        return MeasureOutcome(
            value=None, divergent=True,
            note=f"set touches the boundary r={R:g}",
        )
    if math.isinf(R) and clipped.intervals and clipped.intervals[0][0] <= 0:
        raise DomainError(
            "the 1/r factor is unbounded at r=0 on an infinite disk; "
            "start the weight domain above 0"
        )
    f = h.weight
    coarse = []
    for lo, hi in clipped.intervals:
        mid = 0.5 * (lo + hi)
        width = hi - lo
        est = width * float(np.mean(f(np.array([lo, mid, hi]))))
        coarse.append(abs(est))
    total_scale = max(math.fsum(coarse), 1e-30)
    pieces = []
    for (lo, hi), scale in zip(clipped.intervals, coarse):
        cell_tol = tol * max(scale, total_scale / max(len(coarse), 1)) / 4.0
        for a, b in _split_toward_boundary(lo, hi, R):
            pieces.append(_integrate_smooth(f, a, b, cell_tol))
            if math.fsum(pieces) > 1e12:
                return MeasureOutcome(
                    value=None, divergent=True,
                    note="partial sums exceeded 1e12 without converging",
                )
    return MeasureOutcome(value=math.fsum(pieces))


def log_density(E: IntervalSet, r: float,
                tol: float = DEFAULT_MEASURE_TOL) -> float:
    """Disk-weight integral of E up to r, normalized by log(1/(1-r))."""
    if E.radius != 1.0:
        raise ValidationError("logarithmic density is defined on [0, 1)")
    if not (0 <= r < 1):
        raise DomainError(f"need r in [0, 1), got {r:g}")
    denom = -math.log1p(-r)
    if denom <= 0:
        raise DomainError("log density undefined at r=0 (zero normalizer)")
    numer = h_log_measure(E.clip(0.0, r), h_disk(), tol).require_value()
    return numer / denom


def final_density(E: IntervalSet, r: float) -> float:
    """Lebesgue length of E beyond r over 1 - r; exact interval arithmetic."""
    if E.radius != 1.0:
        raise ValidationError("final density is defined on [0, 1)")
    if not (0 <= r < 1):
        raise DomainError(f"need r in [0, 1), got {r:g}")
    covered = math.fsum(
        max(0.0, hi - max(lo, r)) for lo, hi in E.intervals
    )
    return covered / (1.0 - r)


@dataclass(frozen=True)
class DivergenceCheck:
    passed: bool
    partial_integral: float
    steps: int
    reason: str


def h_divergence_check(h: HSpec,
                       threshold: float = DIVERGENCE_THRESHOLD,
                       steps: int = 44) -> DivergenceCheck:
    """Heuristic check that the weight integral diverges toward R.

    Integrates over a geometric sequence of radii approaching R and passes
    when the partial integral exceeds ``threshold`` or when the per-step
    increments stop decaying summably (slowly divergent weights never reach
    a large threshold within float range, so growth shape decides).
    """
    R = h.radius
    f = h.weight
    lo = h.rho_start if not math.isinf(R) else max(h.rho_start, 1.0)
    if math.isinf(R):
        radii = [lo * 2.0 ** k for k in range(1, steps + 1)]
    else:
        span = R - lo
        radii = [R - span * 0.5 ** k for k in range(1, steps + 1)]
    increments = []
    cur = lo
    total = 0.0
    for r_next in radii:
        inc = math.fsum(
            _integrate_smooth(f, a, b, abs_tol=1e-9 * max(1.0, total))
            for a, b in _split_toward_boundary(cur, r_next, R)
        )
        increments.append(inc)
        total += inc
        cur = r_next
        if total > threshold:
            return DivergenceCheck(True, total, len(increments),
                                   "partial integral exceeded threshold")
    tail = increments[-8:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and min(ratios) >= 0.9:
        return DivergenceCheck(True, total, len(increments),
                               "increments do not decay summably")
    if ratios:
        rho = max(ratios)
        est_tail = increments[-1] * rho / (1.0 - rho) if rho < 1 else math.inf
        if total + est_tail > threshold:
            return DivergenceCheck(True, total, len(increments),
                                   "extrapolated tail exceeds threshold")
    return DivergenceCheck(False, total, len(increments),
                           "partial integrals plateau (convergent tail)")
