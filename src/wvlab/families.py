"""Construction of the named function families and user-defined series.

Families are built from coefficient recurrences or closed log-coefficient
formulas:

* ``exp``          log|a_n| = -log n!, infinite radius
* ``geometric``    log|a_n| = 0, radius 1
* ``monomial``     a single nonzero coefficient ``c * z^k``
* ``kovari``       coefficients of exp((1-z)^-rho), radius 1
* ``suleimanov``   log|a_n| = n^epsilon for n >= 1 (a_0 = 0), radius 1
* ``formula``      a user formula for log|a_n| in a restricted expression
                   language over n (see README), with a given radius

``FAMILY_PARAMS`` declares each family's parameters once; ``make_family``
builds from the values they check.

The closed-form families (``exp``, ``geometric``, ``monomial``,
``suleimanov``, ``formula``) are a ``VectorizedSource``: a scan computes
each block of coefficients from the formula when it needs it, and nothing
is cached.  Only the ``kovari`` recurrences below keep the prefix they have
computed.

Three families declare that their ``log|a_n|`` is concave from an index
``n0`` (``PowerSeries.concave_from``), which lets a scan past its buffer
jump to the peak and the horizon (``series._jump``):

* ``exp`` from 0: ``-lgamma(n + 1)`` is concave, as ``lgamma`` is convex
  on (0, inf);
* ``geometric`` from 0: a constant is concave;
* ``suleimanov`` from 1 (``a_0 = 0``): ``n^eps`` has second derivative
  ``eps (eps - 1) n^(eps - 2) < 0`` for ``0 < eps < 1``.

Their sources are within a few ulps of the exact values (``gammaln``,
``pow``, exact zeros), far inside the bound ``series._DELTA`` states.
``kovari`` does not declare it: log-concavity of the coefficients of
``exp((1-z)^-rho)`` is plausible but unproven here, and numerical evidence
alone is no certificate.  ``monomial`` and ``formula`` do not either (a
monomial's one nonzero term is handled in closed form).

The ``kovari`` coefficients grow sub-factorially but overflow floats well
before interesting radii, so the recurrences run on scaled linear values
and logs are taken at the end.  ``kovari`` at an integer ``rho`` from 1 to
``_KOVARI_MAX_ORDER`` (8) runs an O(N) subtraction-free recurrence over
the repeated partial sums of its coefficients, in lockstep blocks stitched
by powers of two (``_KovariIntSource``), to about one ulp of exact.  Every
other ``rho`` uses the O(N^2) exp-of-series convolution, one contiguous
dot product per coefficient (``_exp_step``, shared with
``exp_of_series``), on the binomial table of (1-z)^-rho that
``binomial_series`` builds as an exact ratio product.

Only the ``exp`` family uses ``scipy.special`` (``gammaln``), and it imports
it when it is built: the import costs more than all of wvlab's own.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .logdomain import LOG_ZERO
from .series import HARD_CAP, PowerSeries, VectorizedSource, \
    _PrefixSource, _reserve

_RESCALE_THRESHOLD = 1e200
_RESCALE_SHIFT = 230.0  # exp(-230) ~ 1e-100 per rescale
# kovari at an integer rho up to this order runs the linear-time recurrence
_KOVARI_MAX_ORDER = 8
# Its blocks of steps.  The unit-start solutions grow fastest in the first
# block: at rho = _KOVARI_MAX_ORDER they reach 4e126 there, 8e225 at twice
# this length, and overflow at four times it.
_KOVARI_BLOCK = 256
# It stages at most this many blocks at once.
_KOVARI_BATCH = 128
# log 2 in two parts: the first has 32 significant bits, so E * _LN2_HI is
# exact for |E| < 2^21, and the second is the rest (fdlibm's constants).
_LN2_HI = float.fromhex("0x1.62e42feep-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def _number(cond, default=None):
    """A check: a float that satisfies ``cond``; ``default`` if not given."""
    def check(value):
        v = float(default if value is None else value)
        if not cond(v):
            raise ValueError(v)
        return v
    return check


# ---------------------------------------------------------------------------
# Restricted formula language: +, -, *, /, **, log, exp, sqrt, pow, n,
# numeric literals and the constants e, pi.  No names beyond these, no
# attribute access, no user recursion.

_FORMULA_FUNCS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt,
                  "pow": np.power}
_FORMULA_CONSTS = {"e": math.e, "pi": math.pi}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_UNARYOPS = {ast.USub: np.negative, ast.UAdd: lambda v: v}


def _compile_formula(text: str):
    """Compile a log-coefficient formula into a vectorized callable of n."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"formula syntax error: {exc.msg}") from None

    def build(node):
        """A callable of n computing ``node``, validated as it is built."""
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = (_BINOPS[type(node.op)], build(node.left),
                               build(node.right))
            return lambda n: op(left(n), right(n))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            op, operand = _UNARYOPS[type(node.op)], build(node.operand)
            return lambda n: op(operand(n))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) \
                    or node.func.id not in _FORMULA_FUNCS or node.keywords:
                raise ValidationError(
                    "formula calls are limited to log, exp, sqrt, pow"
                )
            call, args = _FORMULA_FUNCS[node.func.id], \
                [build(arg) for arg in node.args]
            return lambda n: call(*[arg(n) for arg in args])
        if isinstance(node, ast.Name):
            if node.id == "n":
                return lambda n: n
            if node.id not in _FORMULA_CONSTS:
                raise ValidationError(
                    f"formula name {node.id!r} is not allowed; "
                    "only n, e, pi are defined"
                )
            value = _FORMULA_CONSTS[node.id]
            return lambda n: value
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValidationError("formula literals must be numeric")
            value = float(node.value)
            return lambda n: value
        raise ValidationError(
            f"formula construct {type(node).__name__} is not allowed"
        )

    evaluate = build(tree.body)

    def fn(n_array):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = evaluate(np.asarray(n_array, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.shape(n_array)).copy()

    return fn


# ---------------------------------------------------------------------------
# Each family's parameters: name -> (check, description).  A check maps the
# given value (None when absent) to the checked one; TypeError, ValueError
# or OverflowError (a formula's integer literal past float range) means the
# value is not what the description says.  A parameter's CLI flag and config
# key are its name.
FAMILY_PARAMS = {
    "exp": {},
    "geometric": {},
    "monomial": {
        "coeff": (_number(lambda c: c != 0 and math.isfinite(c)),
                  "a nonzero finite coefficient c"),
        # A monomial's scans read k + 52 terms (its horizon is k + 1), so k
        # is capped like every other term count.
        "degree": (_number(lambda k: 0 <= k < HARD_CAP and k.is_integer()),
                   f"an integer degree 0 <= k < {HARD_CAP}"),
    },
    "kovari": {
        "rho": (_number(lambda v: v > 0 and math.isfinite(v)),
                "a finite exponent rho > 0"),
    },
    "suleimanov": {
        "epsilon": (_number(lambda v: 0 < v < 1), "an exponent in (0, 1)"),
    },
    "formula": {
        "formula": (_compile_formula, "an expression in n for log|a_n|"),
        "radius": (_number(lambda v: v > 0, default=math.inf),
                   "a radius > 0 (default inf)"),
    },
}
FAMILY_IDS = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilySpec:
    """Identifier plus named parameters for one function family."""

    family_id: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        _check_params(self.family_id, self.params)


def _check_params(family_id: str, params: Mapping) -> dict:
    """A family's checked parameters: floats, and the compiled formula."""
    if family_id not in FAMILY_PARAMS:
        raise ValidationError(
            f"unknown family {family_id!r}; choose from {FAMILY_IDS}"
        )
    table = FAMILY_PARAMS[family_id]
    extra = sorted(set(params) - set(table))
    if extra:
        raise ValidationError(f"unexpected {family_id} parameters {extra}")
    checked = {}
    for key, (check, desc) in table.items():
        try:
            checked[key] = check(params.get(key))
        except (TypeError, ValueError, OverflowError):
            got = f"got {params[key]!r}" if key in params else "none given"
            raise ValidationError(
                f"family parameter {key!r} must be {desc}; {got}") from None
    return checked


# ---------------------------------------------------------------------------
# Coefficient recurrences.

def binomial_series(rho: float, count: int) -> np.ndarray:
    """Coefficients b_n of (1-z)^(-rho): b_n = C(n+rho-1, n).

    The exact ratio product b_0 = 1, b_n = b_{n-1} * (n-1+rho)/n, one
    sequential ``np.cumprod``: within 2n ulps of the exact binomial, and inf
    past the float range.  The numerator is formed as ``(n-1) + rho``, which
    is exact at n = 1.
    """
    if not rho > 0:
        raise ValidationError(f"rho must be > 0, got {rho}")
    b = np.ones(count)
    n = np.arange(1, count, dtype=float)
    b[1:] = ((n - 1.0) + rho) / n
    with np.errstate(over="ignore"):
        return np.cumprod(b)


def _exp_step(kbr: np.ndarray, v: np.ndarray, n: int) -> float:
    """The n-th value of the exp-of-series recurrence from ``v[:n]``.

    ``n*v_n = sum_{k=1..n} k*b_k*v_{n-k}``.  ``kbr`` holds ``k*b_k``
    reversed (``kbr[-1 - k] = k*b_k``), so the sum is one dot product of two
    contiguous slices, which numpy hands to BLAS.
    """
    top = kbr.size - 1
    return float(np.dot(kbr[top - n: top], v[:n])) / n


def _reversed_kb(b: np.ndarray) -> np.ndarray:
    """``k*b_k`` for k = 0..len(b)-1, reversed and contiguous; inf where it
    passes the float range."""
    with np.errstate(over="ignore"):
        kb = b * np.arange(b.size, dtype=float)
    return np.ascontiguousarray(kb[::-1])


def exp_of_series(b) -> np.ndarray:
    """Taylor coefficients of exp(sum b_k z^k) by the standard recurrence.

    a_0 = exp(b_0) and n*a_n = sum_{k=1..n} k*b_k*a_{n-k}; nonnegative b keeps
    the recurrence subtraction-free.  Linear-domain output, intended for
    moderate lengths; the family constructors use the scaled log variant.
    """
    b = np.asarray(b, dtype=float)
    if b.size == 0:
        raise ValidationError("coefficient sequence must be nonempty")
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValidationError("exp_of_series requires finite b_k >= 0")
    kbr = _reversed_kb(b)
    a = np.empty(b.size)
    a[0] = math.exp(b[0])
    for n in range(1, b.size):
        a[n] = _exp_step(kbr, a, n)
    return a


class _ScaledExpSource(_PrefixSource):
    """log coefficients of exp(g) where g has nonnegative coefficients.

    Runs the subtraction-free convolution recurrence (``_exp_step``, one
    contiguous dot product per coefficient) on scaled linear values,
    rescaling whenever they approach float overflow.  ``table`` names the
    b_k in the error raised when k*b_k passes the float range.
    """

    def __init__(self, b_fn, table="the exponent's coefficient table"):
        self._b_fn = b_fn          # count -> array of b_0..b_{count-1}
        self._table = table
        self._kbr = np.empty(0)    # k*b_k, reversed
        self._v = np.empty(0)      # scaled a_n values
        self._shift = 0.0

    def _ensure_kb(self, count):
        if self._kbr.size < count:
            # the table is cheap next to the convolution, so it doubles
            b = np.asarray(self._b_fn(max(count, 2 * self._kbr.size)),
                           dtype=float)
            if np.any(b < 0):
                raise ValidationError("exp-of-series input must be b_k >= 0")
            kbr = _reversed_kb(b)
            # k*b_k can overflow where b_k does not
            inf = np.flatnonzero(~np.isfinite(kbr[::-1]))
            if inf.size:
                raise ValidationError(
                    f"{self._table} overflows the float range: n*b_n is inf "
                    f"from n = {inf[0]}")
            self._kbr = kbr

    def _fill(self, logc, cur, stop):
        self._ensure_kb(stop)
        v = self._v = _reserve(self._v, cur, stop)
        if cur == 0:
            b0 = float(np.asarray(self._b_fn(1), dtype=float)[0])
            v[0] = 1.0
            self._shift = b0  # a_0 = exp(b_0) stored as exp(-shift)*a_0 = 1
            logc[0] = b0
            cur = 1
        for n in range(cur, stop):
            if v[n - 1] > _RESCALE_THRESHOLD:
                v[:n] *= math.exp(-_RESCALE_SHIFT)
                self._shift += _RESCALE_SHIFT
            s = _exp_step(self._kbr, v, n)
            v[n] = s
            logc[n] = (math.log(s) + self._shift) if s > 0 else LOG_ZERO


class _KovariIntSource(_PrefixSource):
    """log coefficients of exp((1-z)^-rho) for an integer rho, in linear time.

    ``f' = rho f (1-z)^-(rho+1)`` gives, with a_0 = e,

        (n+1) a_{n+1} = rho S_{rho+1}(n),

    where S_1(n) = a_0 + ... + a_n and S_{j+1}(n) = S_j(0) + ... + S_j(n)
    are the repeated partial sums of a.  A step is a_{n+1} from S_{rho+1}(n),
    then S_1 plus a_{n+1} and each later S_j plus the new S_{j-1}: every
    number in the loop is nonnegative, so nothing cancels, and a relative
    error made in a step stays that size in every later value.

    The indices run in blocks of ``_KOVARI_BLOCK`` steps at fixed places:
    block b takes the state S(bL) to a_{bL+1}, ..., a_{bL+L} and S(bL+L).
    That map is linear with nonnegative coefficients, so a batch of blocks
    runs the rho + 1 unit-start solutions of each block in lockstep, one
    numpy step per index for the whole batch (:meth:`_unit_starts`).  The
    blocks are then stitched in order: each block's state is the transfer
    matrix of the block before it times that block's state, scaled by a
    power of two so that its largest value is in [1/2, 1), with the binary
    exponent E kept as an int.  A coefficient is its block's unit-start
    values dotted with the block's state, v, and log a_n = log(v) + E log 2
    + 1, where E log 2 is split in two so that its larger part is exact and
    is added last.  A block's values do not depend on which call computed
    it, so the bits of a prefix are the same however it was asked for.  A
    fill stitches whole batches of ``_KOVARI_BATCH`` blocks (up to
    ``HARD_CAP``), since a batch costs its ``L`` numpy steps however few
    blocks it holds; the state after the last block and the logs of the
    last batch are kept between calls, and serve the next fill first.
    Cross-checked against mpmath and the convolution in tests.
    """

    def __init__(self, rho: int):
        self._rho = rho
        self._state = [1.0] * (rho + 1)  # S / (e 2^E), S_j(0) = a_0 = e
        self._exp = 0                    # E
        self._blocks = 0                 # the state is S(blocks * L)
        self._last = np.empty(0)         # log a_n of the last batch

    def _unit_starts(self, b0: int, b1: int):
        """The rho + 1 unit-start solutions of blocks b0..b1-1: ``a[t, i, b]``
        is a_{(b0+b)L+t+1} and ``s[j, i, b]`` is S_{j+1} at the end of the
        block, from the start state S_{i+1} = 1 and every other S_j = 0."""
        rho, size = self._rho, _KOVARI_BLOCK
        count = b1 - b0
        # rho / (n+1) for the step from n = (b0+b)L + t, at [t, b]
        coef = rho / np.arange(b0 * size + 1, b1 * size + 1,
                               dtype=float).reshape(count, size).T
        s = np.zeros((rho + 1, rho + 1, count))
        for i in range(rho + 1):
            s[i, i] = 1.0
        a = np.empty((size, rho + 1, count))
        rows = list(s)  # views, made once: the loop is numpy call overhead
        first, last, pairs = rows[0], rows[-1], list(zip(rows, rows[1:]))
        for a_t, coef_t in zip(a, coef):
            np.multiply(last, coef_t, out=a_t)
            np.add(first, a_t, out=first)
            for prev, row in pairs:
                np.add(row, prev, out=row)
        # the end state bounds every value of the block
        if not np.isfinite(s[rho]).all():
            raise OverflowError(f"a kovari({rho}) block of {size} terms "
                                "overflows; the block length is too long")
        return a, s

    def _stitch(self, b0: int, b1: int) -> np.ndarray:
        """log a_n for n = b0*L+1 .. b1*L, stitching blocks b0..b1-1 onto
        the carried state."""
        a, s = self._unit_starts(b0, b1)
        state, exp = self._state, self._exp
        starts, exps = [], []
        for matrix in s.transpose(2, 0, 1).tolist():  # [j][i] per block
            starts.append(state)
            exps.append(exp)
            state = [sum(x * y for x, y in zip(row, state))
                     for row in matrix]
            shift = math.frexp(max(state))[1]
            state = [math.ldexp(x, -shift) for x in state]
            exp += shift
        self._state, self._exp = state, exp
        starts = np.array(starts).T  # [i, b]
        v = a[:, 0] * starts[0]
        for i in range(1, self._rho + 1):
            v += a[:, i] * starts[i]
        exps = np.array(exps, dtype=float)
        logs = (np.log(v) + (exps * _LN2_LO + 1.0)) + exps * _LN2_HI
        return logs.T.ravel()

    def _fill(self, logc, cur, stop):
        if cur == 0:
            logc[0] = 1.0
            cur = 1
        size = _KOVARI_BLOCK
        done = self._blocks * size + 1  # a_1..a_{done-1} are stitched
        if cur < done:  # the last batch holds them
            hi, lo = min(stop, done), done - self._last.size
            logc[cur:hi] = self._last[cur - lo:hi - lo]
            cur = hi
        while cur < stop:  # cur = blocks * L + 1
            b0 = self._blocks
            b1 = min(b0 + _KOVARI_BATCH, (HARD_CAP - 2) // size + 1)
            logs = self._stitch(b0, b1)
            hi = min(stop, b1 * size + 1)
            logc[cur:hi] = logs[:hi - cur]
            self._blocks, self._last = b1, logs
            cur = hi


# ---------------------------------------------------------------------------

def make_family(spec: FamilySpec) -> PowerSeries:
    """Build the series described by ``spec`` from its checked parameters."""
    p = _check_params(spec.family_id, spec.params)
    fid = spec.family_id
    if fid == "exp":
        from scipy.special import gammaln  # its only user; slow to import

        return PowerSeries(
            VectorizedSource(lambda n: -gammaln(n + 1.0)),
            math.inf, "exp", family_id="exp", concave_from=0,
        )
    if fid == "geometric":
        return PowerSeries(
            VectorizedSource(lambda n: np.zeros(np.shape(n))),
            1.0, "geometric", family_id="geometric", concave_from=0,
        )
    if fid == "monomial":
        c, k = p["coeff"], int(p["degree"])
        log_c = math.log(abs(c))
        return PowerSeries(
            VectorizedSource(lambda n: np.where(n == k, log_c, LOG_ZERO)),
            math.inf, f"monomial({c:g}, {k})", family_id="monomial",
            monomial_degree=k,
        )
    if fid == "kovari":
        rho = p["rho"]
        if rho.is_integer() and rho <= _KOVARI_MAX_ORDER:
            source = _KovariIntSource(int(rho))
        else:
            source = _ScaledExpSource(
                lambda count, _r=rho: binomial_series(_r, count),
                f"the binomial table of (1-z)^-{rho:g}")
        return PowerSeries(source, 1.0, f"kovari({rho:g})", family_id="kovari")
    if fid == "suleimanov":
        eps = p["epsilon"]

        def log_coeff(n, _e=eps):
            n = np.asarray(n, dtype=float)
            out = n ** _e
            out[n == 0] = LOG_ZERO  # summation starts at n = 1
            return out

        return PowerSeries(
            VectorizedSource(log_coeff), 1.0,
            f"suleimanov({eps:g})", family_id="suleimanov", concave_from=1,
        )
    text, fn = spec.params["formula"], p["formula"]  # fid == "formula"
    probe = fn(np.arange(8, dtype=float))
    if np.isnan(probe).any() or np.isposinf(probe).any():
        raise ValidationError(
            "formula must evaluate to a finite value or -inf at small n"
        )
    return PowerSeries(VectorizedSource(fn), p["radius"],
                       f"formula({text})", family_id="formula")


def family(family_id: str, **params) -> PowerSeries:
    """Shorthand: ``family('kovari', rho=1)`` etc."""
    return make_family(FamilySpec(family_id, params))
