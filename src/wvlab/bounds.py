"""The lab's three vocabularies, one table each, evaluated in log domain.

* ``PSI_TABLE``: psi with a convergent ``1/psi`` tail integral.  A row
  holds the spec parameters, the default threshold ``a`` and its check,
  ``log psi`` from ``log y`` and the closed-form tail.
* ``H_TABLE``: radial weights h with a divergent ``h(r)/r`` integral up to
  the boundary.  A row holds the domain ``[rho_start, radius)``, ``log h``
  and the array integrand of ``measures.h_log_measure``.
* ``BOUND_TABLE``: the named bounds (README carries the same table).  A row
  holds the display formula, the parameters and the log terms that
  ``eval_bound`` adds to ``log C`` left to right.

``psi_custom`` and ``h_custom`` add user functions.  Quantities like
``exp(1e6)`` never materialize: the linear ``psi_eval`` and ``HSpec.value``
are ``exp`` of the log forms, and a domain error past float range.
Iterated-log domain failures are hard errors naming the offending
subexpression, never silent clamps.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError, ValidationError


def iterated_log(k: int, y: float) -> float:
    """log applied k times; requires the result to be strictly positive.

    Never clamps: an argument at or below the k-th iterated-exponential
    threshold raises a domain error naming the failing level.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError(f"iterated log order must be an integer >= 1, got {k}")
    v = float(y)
    for level in range(1, k + 1):
        if not v > 0:
            raise DomainError(
                f"iterated log level {level} of y={y:g} hits a nonpositive "
                f"argument {v:g}",
                subexpression=f"log_{level}(y)",
            )
        v = math.log(v)
    if not v > 0:
        raise DomainError(
            f"log_{k}(y) = {v:g} is not positive for y={y:g}",
            subexpression=f"log_{k}(y)",
        )
    return v


def _tower(height: int) -> float:
    """exp iterated ``height`` times starting from 1 (e, e^e, ...)."""
    v = 1.0
    for _ in range(height):
        if v > 709.0:
            raise ValidationError(f"iter order n={height + 1} puts the "
                                  "default threshold beyond float range")
        v = math.exp(v)
    return v


def _pos_log(value: float, name: str) -> float:
    if not value > 0:
        raise DomainError(f"{name} = {value:g} is not positive",
                          subexpression=name)
    return math.log(value)


def _user_log(value, name: str) -> float:
    """log of a user function's value, which must be a positive float."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"{name} exceeds float range", subexpression=name)
    return _pos_log(value, name)


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ValidationError(message)


def _positive(name: str, value: float, message: str) -> None:
    """``message`` unless value > 0; an infinite value is refused too."""
    _need(value is not None and value > 0, message)
    _need(value < math.inf, f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# psi specs


@dataclass(frozen=True)
class PsiSpec:
    """One positive increasing function with integrable reciprocal tail."""

    psi_id: str
    delta: float | None = None
    n: int | None = None
    a: float = 0.0
    fn: Callable[[float], float] | None = None

    def __str__(self):
        params = ", ".join(f"{name}={getattr(self, name):g}"
                           for name, _ in _psi_row(self).params)
        return f"{self.psi_id}({params})" if params else self.psi_id


class _PsiRow(NamedTuple):
    params: tuple     # (name, parser) in spec order: pow:DELTA, iter:N:DELTA
    a: Callable       # n -> default threshold
    check_a: Callable  # (a, n) -> None, raising on a bad threshold
    log: Callable     # (spec, log y) -> log psi(y)
    tail: Callable    # (spec, a0) -> integral of 1/psi over [a0, inf)
    linear: Callable | None = None  # (spec, y) -> log psi(y), if not via log y


def _exp(log_y: float, message: str, subexpression: str | None = None):
    """exp(log_y); past float range a domain error with ``message``."""
    try:
        return math.exp(log_y)
    except OverflowError:
        raise DomainError(message, subexpression=subexpression) from None


def _iter_log(spec: PsiSpec, log_y: float) -> float:
    out = log_y
    level = log_y  # log_1(y); deeper levels follow by taking logs
    for j in range(1, spec.n - 1):
        out += _pos_log(level, f"log_{j}(y)")
        level = math.log(level)
    if not level > 0:
        raise DomainError(
            f"log_{spec.n - 1}(y) not positive (log y={log_y:g})",
            subexpression=f"log_{spec.n - 1}(y)",
        )
    return out + (1.0 + spec.delta) * math.log(level)


def _tail_from(a0: float, message: str) -> float:
    if not a0 > 0:
        raise DomainError(message)
    return a0


def _nonneg_a(psi_id: str) -> Callable:
    return lambda a, n: _need(a >= 0, f"threshold a must be >= 0 for {psi_id}")


_DELTA = ("delta", float)
# Built-in psi: the ids ``config.parse_psi`` reads (README lists them).
PSI_TABLE = {
    "pow": _PsiRow(  # y^(1+delta)
        (_DELTA,), lambda n: 0.0, _nonneg_a("pow"),
        lambda s, ly: (1.0 + s.delta) * ly,
        lambda s, a0: (_tail_from(a0, "pow tail needs a0 > 0") ** -s.delta
                       / s.delta)),
    "logpow": _PsiRow(  # y (log y)^(1+delta), y > 1
        (_DELTA,), lambda n: math.e,
        lambda a, n: _need(a > 1, "threshold a must be > 1 for logpow"),
        lambda s, ly: ly + (1.0 + s.delta) * _pos_log(ly, "log(y)"),
        lambda s, a0: _pos_log(a0, "log(a0)") ** -s.delta / s.delta),
    # y log y log_2 y ... (log_{n-1} y)^(1+delta); logpow at n = 2
    "iter": _PsiRow(
        (("n", int), _DELTA), lambda n: _tower(n - 1),
        lambda a, n: iterated_log(n - 1, a), _iter_log,
        lambda s, a0: iterated_log(s.n - 1, a0) ** -s.delta / s.delta),
    "exphalf": _PsiRow(  # exp(y/2)
        (), lambda n: 0.0, _nonneg_a("exphalf"),
        lambda s, ly: _exp(ly, f"exp-half psi overflows: log y={ly:g} exceeds "
                           "float range", "exp(y/2)") / 2.0,
        lambda s, a0: 2.0 * math.exp(-a0 / 2.0),
        linear=lambda s, y: y / 2.0),
    "square": _PsiRow(  # y^2
        (), lambda n: 0.0, _nonneg_a("square"), lambda s, ly: 2.0 * ly,
        lambda s, a0: 1.0 / _tail_from(a0, "square tail needs a0 > 0")),
}


def _custom_tail(spec: PsiSpec, a0: float, rel_tol: float = 1e-9) -> float:
    """Quadrature of 1/fn over [a0, inf); raises if it fails to converge."""
    from .measures import _integrate_smooth  # local import avoids a cycle

    def integrand(y):
        vals = np.asarray([float(spec.fn(float(t))) for t in np.atleast_1d(y)])
        if np.any(vals <= 0):
            raise DomainError("custom psi must stay positive on its tail")
        return 1.0 / vals

    total = 0.0
    lo = a0
    hi = max(2.0 * a0, a0 + 1.0)
    for _ in range(240):
        piece = _integrate_smooth(integrand, lo, hi, abs_tol=rel_tol / 8.0
                                  * max(total, 1e-300) + 1e-300)
        total += piece
        if piece <= rel_tol * total and total > 0:
            return total
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            break
    raise DivergenceError(
        f"tail integral of 1/psi from a0={a0:g} did not converge"
    )


_CUSTOM_PSI = _PsiRow(
    (), None, None, lambda s, ly: _user_log(s.fn(_exp(
        ly, "custom psi cannot be evaluated at y beyond float range")),
        "psi(y)"),
    _custom_tail,
    linear=lambda s, y: _user_log(s.fn(y), "psi(y)"))


def _psi_row(spec: PsiSpec) -> _PsiRow:
    return _CUSTOM_PSI if spec.fn is not None else PSI_TABLE[spec.psi_id]


def psi_spec(psi_id: str, *values, a: float | None = None) -> PsiSpec:
    """Validated built-in psi from its parameters in the row's order,
    optionally followed by the threshold ``a`` (default: the row's)."""
    _need(psi_id in PSI_TABLE,
          f"unknown psi {psi_id!r}; choose from {tuple(PSI_TABLE)}")
    row = PSI_TABLE[psi_id]
    names = [name for name, _ in row.params]
    if not len(names) <= len(values) <= len(names) + 1:
        raise TypeError(f"psi {psi_id!r} takes {names} and optionally a")
    fields = dict(zip(names + ["a"], values))
    a = fields.pop("a", a)
    n = fields.get("n")
    if "n" in fields:
        _need(isinstance(n, int) and n >= 2,
              f"{psi_id} order n must be an integer >= 2, got {n}")
    if "delta" in fields:
        _positive("delta", fields["delta"],
                  f"delta must be > 0, got {fields['delta']}")
    a = row.a(n) if a is None else a
    _need(math.isfinite(a), f"threshold a must be finite, got {a}")
    row.check_a(a, n)
    return PsiSpec(psi_id, a=a, **fields)


psi_pow = partial(psi_spec, "pow")
psi_logpow = partial(psi_spec, "logpow")
psi_iter = partial(psi_spec, "iter")
psi_exphalf = partial(psi_spec, "exphalf")
psi_square = partial(psi_spec, "square")


def psi_custom(fn: Callable[[float], float], a: float) -> PsiSpec:
    """User psi; the tail integral is computed by adaptive quadrature."""
    return PsiSpec("custom", a=a, fn=fn)


def _check_psi_domain(spec: PsiSpec, y: float) -> None:
    if y < spec.a:
        raise DomainError(
            f"psi {spec} queried at y={y:g} below its threshold a={spec.a:g}",
            subexpression=f"psi({spec})",
        )


def psi_log_of_linear(spec: PsiSpec, y: float) -> float:
    """log psi(y) for a linear-domain argument (which may be a log itself)."""
    _check_psi_domain(spec, y)
    row = _psi_row(spec)
    if row.linear is not None:
        return row.linear(spec, y)
    return row.log(spec, _pos_log(y, "y"))


def psi_log_of_log(spec: PsiSpec, log_y: float) -> float:
    """log psi(y) given log(y); the argument itself may be astronomically big."""
    if spec.a > 0 and log_y < math.log(spec.a):
        raise DomainError(
            f"psi {spec} queried below its threshold (log y={log_y:g})",
            subexpression=f"psi({spec})",
        )
    return _psi_row(spec).log(spec, log_y)


def psi_eval(spec: PsiSpec, y: float) -> float:
    """Linear-domain psi(y)."""
    log_psi = psi_log_of_linear(spec, y)
    return _exp(log_psi, f"psi {spec} at y={y:g} exceeds float range: "
                f"log psi = {log_psi:g}", f"psi({spec})")


def psi_tail(spec: PsiSpec, a0: float) -> float:
    """Tail integral of 1/psi over [a0, infinity)."""
    _check_psi_domain(spec, a0)
    return _psi_row(spec).tail(spec, a0)


# ---------------------------------------------------------------------------
# h specs


@dataclass(frozen=True)
class HSpec:
    """Positive increasing radial weight on [rho_start, radius)."""

    h_id: str
    rho_start: float
    radius: float
    fn: Callable[[float], float] | None = None

    def __str__(self):
        return self.h_id

    def log_value(self, r: float) -> float:
        if not (self.rho_start <= r < self.radius):
            raise DomainError(
                f"h weight {self.h_id!r} undefined at r={r:g} "
                f"(domain [{self.rho_start:g}, {self.radius:g}))",
                subexpression=f"h({self.h_id})",
            )
        return _h_row(self).log(self, r)

    def value(self, r: float) -> float:
        log_h = self.log_value(r)
        return _exp(log_h, f"h weight {self.h_id!r} at r={r:g} exceeds float "
                    f"range: log h = {log_h:g}", f"h({self.h_id})")

    def weight(self, r: np.ndarray) -> np.ndarray:
        """The integrand of ``measures.h_log_measure`` at the radii ``r``:
        h(r), with a 1/r factor on an infinite disk."""
        return _h_row(self).weight(self, r)


class _HRow(NamedTuple):
    rho_start: float
    radius: float
    log: Callable     # (spec, r) -> log h(r)
    weight: Callable  # (spec, radii array) -> integrand array


def _custom_weight(h: HSpec, r: np.ndarray) -> np.ndarray:
    vals = np.array([h.fn(float(t)) for t in np.atleast_1d(r)])
    return vals / r if math.isinf(h.radius) else vals


# Built-in weights: the ids of ``h_by_id`` (README lists them).
H_TABLE = {
    "unit": _HRow(1.0, math.inf, lambda h, r: 0.0,  # 1 on [1, inf)
                  lambda h, r: 1.0 / r),
    "disk": _HRow(0.0, 1.0, lambda h, r: -math.log1p(-r),  # 1/(1-r)
                  lambda h, r: 1.0 / (1.0 - r)),
    "disklog": _HRow(  # 1/((1-r) log(1/(1-r)))
        1.0 - 1.0 / math.e, 1.0,
        lambda h, r: (u := -math.log1p(-r)) - math.log(u),
        lambda h, r: 1.0 / ((1.0 - r) * (-np.log1p(-r)))),
}
_CUSTOM_H = _HRow(None, None, lambda h, r: _user_log(h.fn(r), "h(r)"),
                  _custom_weight)


def _h_row(h: HSpec) -> _HRow:
    return _CUSTOM_H if h.fn is not None else H_TABLE[h.h_id]


def h_by_id(name: str) -> HSpec:
    _need(name in H_TABLE,
          f"unknown h weight {name!r}; choose from {sorted(H_TABLE)}")
    row = H_TABLE[name]
    return HSpec(name, rho_start=row.rho_start, radius=row.radius)


h_unit = partial(h_by_id, "unit")
h_disk = partial(h_by_id, "disk")
h_disklog = partial(h_by_id, "disklog")


def h_custom(fn: Callable[[float], float], rho_start: float,
             radius: float) -> HSpec:
    if not (0 <= rho_start < radius):
        raise ValidationError("need 0 <= rho_start < radius")
    return HSpec("custom", rho_start=rho_start, radius=radius, fn=fn)


# ---------------------------------------------------------------------------
# Bound expressions


@dataclass(frozen=True)
class BoundSpec:
    """Identifier plus parameters naming one catalog bound expression."""

    bound_id: str
    delta: float | None = None
    n: int | None = None
    C: float = 1.0
    h: HSpec | None = None
    psi1: PsiSpec | None = None
    psi2: PsiSpec | None = None

    def __str__(self):
        parts = [self.bound_id]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.delta is not None:
            parts.append(f"delta={self.delta:g}")
        if "C" in BOUND_TABLE[self.bound_id].takes:
            parts.append(f"C={self.C:g}")
        if self.h is not None:
            parts.append(f"h={self.h}")
        if self.psi1 is not None:
            parts.append(f"psi1={self.psi1}")
        if self.psi2 is not None:
            parts.append(f"psi2={self.psi2}")
        return parts[0] + "(" + ", ".join(parts[1:]) + ")"


# A bound's arguments: its spec ``s``, ``L = log mu``, ``u = log 1/(1-r)``
# and ``B = L + u`` (disk bounds), ``lh = log h(r)`` (bounds taking h).
_At = namedtuple("_At", "s L u B lh log_M")


class _BoundRow(NamedTuple):
    formula: str
    takes: tuple       # of C, delta, n, h, psi
    terms: Callable    # _At -> log terms, added to log C left to right
    disk: bool = False  # needs r in [0, 1)


def _iter_factors_log(base: float, n: int, delta: float, name: str) -> float:
    """Sum of log factors  0.5*log(B) + sum log(log_j B) + (1+d)*log(log_n B).

    ``base`` is already the first log (e.g. log(mu/(1-r))); the factors are
    powers of its further iterated logs.
    """
    out = 0.5 * _pos_log(base, f"log({name})")
    for j in range(2, n):
        out += math.log(iterated_log(j - 1, base))
    out += (1.0 + delta) * math.log(iterated_log(n - 1, base))
    return out


def _chain(p: _At, base: float, name: str) -> float:
    """The iterated-log factors of order n; a bound without n has order 2."""
    return _iter_factors_log(base, p.s.n or 2, p.s.delta, name)


def _dlog(k: float, p: _At, x: float, name: str) -> float:
    """(k + delta) * log x."""
    return (k + p.s.delta) * _pos_log(x, name)


def _main_terms(p: _At) -> tuple:
    inner = p.lh + psi_log_of_linear(p.s.psi1, float(p.log_M))
    return p.L, 0.5 * (p.lh + psi_log_of_log(p.s.psi2, inner))


_CD = ("C", "delta")
_CDN = ("C", "delta", "n")
_LOG_B = "log(mu/(1-r))"
_LOG_U = "log(1/(1-r))"
_B_CHAIN = ("C * mu/(1-r) * (log B)^(1/2) * log_2 B ... log_{n-1} B"
            " * (log_n B)^(1+delta),  B = mu/(1-r)")
_WV_CHAIN = lambda p: (p.L, _chain(p, p.L, "mu"))
_KOV_CHAIN = lambda p: (p.B, _chain(p, p.B, "mu/(1-r)"))
_SK_TERMS = lambda p: (
    p.B, _dlog(0.5, p, p.u, _LOG_U), _chain(p, p.B, "mu/(1-r)"))
BOUND_TABLE = {
    "wv": _BoundRow("C * mu * (log mu)^(1/2+delta)", _CD,
                    lambda p: (p.L, _dlog(0.5, p, p.L, "log(mu)"))),
    "wvb": _BoundRow("C * mu * (log mu)^(1/2) * (log_2 mu)^(1+delta)", _CD,
                     _WV_CHAIN),
    "wvc": _BoundRow("C * mu * (log mu)^(1/2) * log_2 mu ... log_{n-1} mu"
                     " * (log_n mu)^(1+delta)", _CDN, _WV_CHAIN),
    "kov": _BoundRow("C * mu/(1-r) * (log(mu/(1-r)))^(1/2+delta)", _CD,
                     lambda p: (p.B, _dlog(0.5, p, p.B, _LOG_B)), disk=True),
    "kov_n": _BoundRow(_B_CHAIN, _CDN, _KOV_CHAIN, disk=True),
    "sul": _BoundRow(
        "C * mu/(1-r)^(1+delta) * (log(mu/(1-r)))^(1/2+delta)", _CD,
        lambda p: (p.L, (1.0 + p.s.delta) * p.u, _dlog(0.5, p, p.B, _LOG_B)),
        disk=True),
    "sul_n": _BoundRow(
        "C * mu/(1-r) * (log 1/(1-r))^(1+delta) * (log B)^(1/2)"
        " * log_2 B ... log_{n-1} B * (log_n B)^(1+delta)", _CDN,
        lambda p: (p.B, _dlog(1.0, p, p.u, _LOG_U),
                   _chain(p, p.B, "mu/(1-r)")), disk=True),
    "sk": _BoundRow(
        "C * mu/(1-r) * (log 1/(1-r))^(1/2+delta) * (log B)^(1/2)"
        " * (log_2 B)^(1+delta)", _CD, _SK_TERMS, disk=True),
    "sk_n": _BoundRow(
        "C * mu/(1-r) * (log 1/(1-r))^(1/2+delta) * (log B)^(1/2)"
        " * log_2 B ... log_{n-1} B * (log_n B)^(1+delta)", _CDN, _SK_TERMS,
        disk=True),
    "main": _BoundRow("C * mu * sqrt(h(r) * psi2(h(r) * psi1(log M)))",
                      ("C", "h", "psi"), _main_terms),
    "sk4": _BoundRow(
        "C * h * mu * (log h)^(1/2+delta) * (log(h*mu))^(1/2)"
        " * log_2(h*mu) ... log_{n-1}(h*mu) * (log_n(h*mu))^(1+delta)",
        ("C", "delta", "n", "h"),
        lambda p: (p.lh, p.L, _dlog(0.5, p, p.lh, "log(h)"),
                   _chain(p, p.lh + p.L, "h*mu"))),
    "logimp": _BoundRow(_B_CHAIN, _CDN, _KOV_CHAIN, disk=True),
    "lower": _BoundRow(
        "C * mu/(1-r) * (log(mu/(1-r)))^(1/2)   [lower bound, C = 1]", (),
        lambda p: (p.B, 0.5 * _pos_log(p.B, _LOG_B)), disk=True),
}
BOUND_IDS = tuple(BOUND_TABLE)
BOUND_FORMULAS = {bid: row.formula for bid, row in BOUND_TABLE.items()}


def bound_spec(bound_id: str, delta: float | None = None, n: int | None = None,
               C: float | None = None, h: HSpec | None = None,
               psi1: PsiSpec | None = None,
               psi2: PsiSpec | None = None) -> BoundSpec:
    """Validated constructor for catalog bound expressions."""
    _need(bound_id in BOUND_TABLE,
          f"unknown bound id {bound_id!r}; choose from {BOUND_IDS}")
    takes = BOUND_TABLE[bound_id].takes
    C = 1.0 if C is None else float(C)
    if "C" in takes:
        _positive("C", C, f"C must be > 0, got {C}")
    else:
        _need(C == 1.0, "the lower bound is evaluated with C = 1; fit "
              "constants in the experiment layer")
    if "delta" in takes:
        _positive("delta", delta,
                  f"bound {bound_id!r} needs delta > 0")
    else:
        _need(delta is None, f"bound {bound_id!r} takes no delta")
    if "n" in takes:
        _need(isinstance(n, int) and n >= 2,
              f"bound {bound_id!r} needs integer n >= 2")
    else:
        _need(n is None, f"bound {bound_id!r} takes no n")
    if "h" in takes:
        _need(h is not None, f"bound {bound_id!r} needs an h weight")
    else:
        _need(h is None, f"bound {bound_id!r} takes no h weight")
    if "psi" in takes:
        _need(psi1 is not None and psi2 is not None,
              f"bound {bound_id!r} needs psi1 and psi2")
    else:
        _need(psi1 is None and psi2 is None,
              f"bound {bound_id!r} takes no psi specs")
    return BoundSpec(bound_id, delta=delta, n=n, C=C, h=h,
                     psi1=psi1, psi2=psi2)


def eval_bound(spec: BoundSpec, log_mu: float, log_M: float | None = None,
               r: float | None = None) -> float:
    """log of the named bound's right-hand side (lower bound for ``lower``).

    Disk-type expressions need ``r`` in [0, 1); ``main`` additionally needs
    ``log_M``.  All iterated-log arguments must be above their thresholds,
    otherwise a domain error naming the subexpression propagates.
    """
    h, bid = spec.h, spec.bound_id
    row = BOUND_TABLE[bid]
    if "psi" in row.takes and log_M is None:
        raise ValidationError(f"bound {bid!r} consumes log_M; it is absent")
    if "h" in row.takes and h is None:
        raise ValidationError(f"bound {bid!r} needs an h weight")
    if (row.disk or "h" in row.takes) and r is None:
        raise ValidationError(f"bound {bid!r} needs the radius r")
    if row.disk and not (0 <= r < 1):
        raise DomainError(f"bound {bid!r} needs r in [0, 1), got {r:g}")
    L = float(log_mu)
    u = -math.log1p(-r) if row.disk else None
    total = math.log(spec.C)
    for term in row.terms(_At(spec, L, u, None if u is None else L + u,
                              h.log_value(r) if "h" in row.takes else None,
                              log_M)):
        total += term
    return total


# ---------------------------------------------------------------------------
# Composition chain diagnostics


@dataclass(frozen=True)
class PhiChainRow:
    y: float
    log_phi: float
    log_rhs_product: float
    log_rhs_square: float
    holds_product: bool
    holds_square: bool
    log_ratio_square: float


@dataclass(frozen=True)
class PhiChainReport:
    delta: float
    rows: list
    y0: float | None            # smallest grid y after which both hold
    monotone_start: float | None  # phi/y^2 strictly decreasing from here on


def phi_chain_check(delta: float, y_grid) -> PhiChainReport:
    """Check the two elementary majorizations of phi = psi o psi for
    psi(y) = y (log y)^(1+delta):

        phi(y) <= 2^(1+delta) * y * (log y)^(2+2*delta)
        phi(y) <= y^2

    Reports the smallest grid point beyond which both hold at every later
    grid point (may be unattained) and where the ratio phi/y^2 becomes
    strictly decreasing for good.
    """
    if not delta > 0:
        raise ValidationError(f"delta must be > 0, got {delta}")
    psi = psi_logpow(delta)
    rows = []
    for y in y_grid:
        y = float(y)
        ly = _pos_log(y, "log(y)")
        inner = psi_log_of_linear(psi, y)          # log psi(y)
        log_phi = psi_log_of_log(psi, inner)       # log psi(psi(y))
        log_rhs1 = ((1.0 + delta) * math.log(2.0) + math.log(y)
                    + (2.0 + 2.0 * delta) * math.log(ly))
        log_rhs2 = 2.0 * math.log(y)
        rows.append(PhiChainRow(
            y=y, log_phi=log_phi, log_rhs_product=log_rhs1,
            log_rhs_square=log_rhs2,
            holds_product=log_phi <= log_rhs1 + 1e-12,
            holds_square=log_phi <= log_rhs2 + 1e-12,
            log_ratio_square=log_phi - log_rhs2,
        ))
    y0 = None
    for i in range(len(rows)):
        if all(r.holds_product and r.holds_square for r in rows[i:]):
            y0 = rows[i].y
            break
    monotone_start = None
    for i in range(len(rows) - 1):
        tail = [r.log_ratio_square for r in rows[i:]]
        if all(b < a for a, b in zip(tail, tail[1:])):
            monotone_start = rows[i].y
            break
    return PhiChainReport(delta=delta, rows=rows, y0=y0,
                          monotone_start=monotone_start)
