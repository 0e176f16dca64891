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
is cached.  The formulas of ``exp``, ``geometric`` and ``suleimanov`` write
their values over the index array they are given, as the source's formula
contract allows, so a piece of term logs needs no array but that one.  Only
the ``kovari`` recurrences below keep what they have computed, in chunks
at fixed places, under the fill contract of
``series._PrefixSource``: the convolution all of it, as its history
products read it all, and the integer recurrence its first
``_CACHE_TERMS`` coefficients, with a checkpoint at each batch from which
it computes any later chunk again.

Three families declare that their ``log|a_n|`` is concave from an index
``n0`` (``PowerSeries.concave_from``), so that margins above twice the
rounding bound between computed terms certify the peak, the horizon and
the quiet blocks (``series._slack``):

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
other ``rho`` runs the exp-of-series recurrence on the binomial table of
(1-z)^-rho that ``binomial_series`` builds as an exact ratio product, as a
semi-relaxed convolution (``_ScaledExpSource``): blocks of 32 values, the
history of each block added by direct and FFT products of doubling
length, and each block solved by a positive Neumann product.  A block is
kept only under a certificate that its relative rounding error, the FFT's
bound included, is at most ``series._DELTA``; otherwise it is
computed again by the plain recurrence step (``_exp_step``, one
contiguous product per value, shared with ``exp_of_series``).  The work
is about N log^2 N plus N^2 / 2048 for the pairs of FFT pieces, where the
plain recurrence takes N^2 / 2.

Only the ``exp`` family uses ``scipy.special`` (``gammaln``), and it imports
it when it is built: the import costs more than all of wvlab's own.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .logdomain import LOG_ZERO
from .series import _DELTA, HARD_CAP, TAIL_RUN, PowerSeries, \
    VectorizedSource, _PrefixSource

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
# It keeps the chunks of its first this many coefficients (32 MB), every
# benchmark workload's prefix, and computes later ones again from the batch
# checkpoints.
_CACHE_TERMS = 2 ** 22
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
        # A monomial's closed form stands for a scan of k + 52 terms (its
        # horizon is k + 1), so those must fit under the cap.
        "degree": (_number(lambda k: 0 <= k <= HARD_CAP - TAIL_RUN - 2
                           and k.is_integer()),
                   f"an integer degree 0 <= k <= {HARD_CAP - TAIL_RUN - 2}"),
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
    reversed (``kbr[-1 - k] = k*b_k``), so the sum is one product of two
    contiguous slices.  ``np.einsum`` runs it on one thread, so its bits do
    not depend on the BLAS thread count, as a long ``np.dot`` would.
    """
    top = kbr.size - 1
    return float(np.einsum("i,i->", kbr[top - n: top], v[:n])) / n


def _gamma(m: float) -> float:
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u = 2^-53``: a bound on the
    relative error of m chained roundings of nonnegative values."""
    mu = m * 2.0 ** -53
    return mu / (1.0 - mu) if mu < 1.0 else math.inf


# The semi-relaxed convolution of _ScaledExpSource: its block of values, the
# longest history product it convolves directly (longer ones use the FFT),
# and the piece length of an FFT product's factors.
_EXP_BLOCK = 32
_EXP_DIRECT = 256
_EXP_PIECE = 2048
# The Neumann matrices of this many blocks are built together, by batched
# matmul: 22 ms of a kovari(0.5) fill to 30,322 against 42 ms one block at
# a time (2-core x86_64 VM).
_EXP_CHUNK = 8
# Roundings behind a block's values given its history sums: a direct
# product of at most _EXP_DIRECT terms, the additions into a sum (at most
# five per level: two products in two groups each, and the first block's
# direct part; fewer than 32 levels), r / n, and the Neumann product.  Its
# matrix M = (I + N)(I + N^2) ... is built as M <- M + M N^(2^k), where
# N^(2^k) carries 2^k + (2^k - 1) B roundings and each step adds those and
# B + 1 more; M (r / n) adds B.
_EXP_ROUNDINGS = _EXP_DIRECT + 5 * 32 + 1 + _EXP_BLOCK + sum(
    2 ** k + (2 ** k - 1) * _EXP_BLOCK + _EXP_BLOCK + 1
    for k in range(_EXP_BLOCK.bit_length() - 1))
# Percival's bound (below) covers a radix-2 complex FFT with twiddles
# within u; pocketfft's real mixed-radix transforms and the rounding of the
# norms are covered by this factor.  tests/test_kernels.py holds products
# to the bound against exact ones; their errors stay under 1% of it.
_FFT_SLACK = 2.0
# A kept block's n v_n lie within this ratio of each other and of 1: a
# rounding that underflows errs by at most 2^-1074 times a value up to the
# largest, so a few thousand of them add less than 2^-60 of the smallest.
_EXP_RANGE = 2.0 ** 950


def _fft_gamma(size: int, terms: int) -> float:
    """A bound on ``|computed - exact|`` of the FFT product of length-``size``
    transforms, in units of ``sum ||x_a||_2 ||y_c||_2`` over the ``terms``
    pairs of pieces whose spectra are added before one inverse transform.

    Percival (2003, "Rapid multiplication modulo the sum and difference of
    highly composite numbers", Math. Comp. 72) bounds one product by
    ``||x|| ||y|| ((1+u)^3n (1+u sqrt 5)^(3n+1) (1+beta)^3n - 1)``, n =
    log2 size; with ``beta <= u`` and ``1 + u sqrt 5 <= (1+u)^3`` that is at
    most ``gamma_(15n+3)``.  Adding the spectra costs ``terms - 1`` more
    roundings of values whose inverse transform is bounded by the same
    norms.
    """
    return _FFT_SLACK * _gamma(15 * math.log2(size) + 3 + terms)


def _norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norms of nonnegative rows, scaled by their largest entries so
    that the squares cannot overflow."""
    top = rows.max(axis=1)
    scale = np.where(top > 0.0, top, 1.0)[:, None]
    unit = rows / scale
    return top * np.sqrt(np.einsum("ij,ij->i", unit, unit))


def _reversed_kb(b: np.ndarray) -> np.ndarray:
    """``k*b_k`` for k = 0..len(b)-1, reversed and contiguous; inf where it
    passes the float range."""
    kbr = np.arange(b.size - 1, -1, -1, dtype=float)
    with np.errstate(over="ignore"):
        kbr *= b[::-1]
    return kbr


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

    ``n v_n = sum_{k=1..n} k b_k v_{n-k}`` runs on scaled linear values as a
    semi-relaxed convolution (van der Hoeven 2002, "Relax, but don't be too
    lazy"): ``k b_k`` is known in advance and only v arrives online.  The
    values come in blocks of ``B = _EXP_BLOCK`` at fixed places.

    * History.  After the block that ends at e, every level L = 2B, 4B,
      ... that divides e adds the product ``v[e-L:e] * kb[L:2L]`` into the
      sums ``s_n`` of the indices n >= e it reaches, and ``v[e-B:e] *
      kb[1:2B]`` does the rest: every pair (j, k) whose ``j + k`` lies in a
      later block is added once, before that block starts, and the pairs
      within a block make up its own system (below).  The sums of indices
      past the values live in the same buffer as the values.  Levels up to
      ``_EXP_DIRECT`` are ``np.convolve``, positive and exact to a priori
      roundings.  Longer ones cut both factors into two or more pieces of
      at most ``_EXP_PIECE`` and multiply those by FFT (``numpy.fft``,
      imported at the first such product), adding the spectra of the
      pairs that land on the same indices.  Each group adds its bound,
      ``_fft_gamma`` times the sum of ``||x_a|| ||y_c||``, to the error
      bound kept per block of the sums it reaches.  With two pieces or
      more the first indices a product reaches read only its lowest piece
      of v, so a fast-growing v does not swamp them; and the first block
      of v is convolved directly, since ``v_0 = 1`` (``a_0 = exp(b_0)``)
      can dwarf every later value, as it does for a small g.
    * Block.  ``(D - K) v = s`` with ``D = diag(n)`` and K the strictly
      lower Toeplitz matrix of ``k b_k``, solved as the positive Neumann
      product ``(I + N)(I + N^2)...(I + N^(B/2)) D^-1 s``, ``N = D^-1 K``:
      no subtraction, so its relative error is a priori
      (``_EXP_ROUNDINGS``).
    * Certificate.  A block is kept only if its ``n v_n`` are finite,
      positive and within ``_EXP_RANGE`` of each other and of 1, and its
      FFT error bound is at most ``series._DELTA``, less the a priori
      part, of its smallest history sum ``s_n``: the solve's matrix is
      positive, so that bounds the relative error of each value, whatever
      the nonnegative b.  Any other block, and the first,
      is computed again by ``_exp_step``, one contiguous product per value,
      so exact zeros and underflow come out as they did.

    A block's products do not depend on how far a fill goes, and a fill
    computes whole blocks and yields each as it comes (the fill contract of
    ``series._PrefixSource``), so the bits of a prefix are the same however
    it was asked for.  The source keeps every value, since its history
    products read them all.  Values are rescaled by
    ``exp(-_RESCALE_SHIFT)`` when ``v_{n-1}`` passes ``_RESCALE_THRESHOLD``
    before ``v_n``, at the same indices as a plain loop; the sums and their
    bounds are rescaled with them.  The table of ``k b_k`` is built to
    twice a level when that level's first product comes and kept until the
    next: the blocks and fallbacks of a fill read below it.
    ``table`` names the b_k in the error raised when a ``k b_k`` below a
    fill's stop, which a fallback reads, passes the float range; past the
    stop an inf only fails the certificate of the blocks it reaches, and a
    fill returns no value from the first inf ``k b_k`` on.
    """

    def __init__(self, b_fn, table="the exponent's coefficient table"):
        super().__init__()
        self._b_fn = b_fn          # count -> array of b_0..b_{count-1}
        self._table = table
        self._kbr = np.empty(0)    # k*b_k, reversed
        self._inf = 0              # first k with k*b_k inf, or the table size
        self._toeplitz = np.empty(0)  # [i, m] = k*b_k at k = i - m > 0
        self._v = np.zeros(0)      # scaled a_n of the blocks, then the s_n
        self._err = np.zeros(0)    # per block of s_n: its FFT error bound
        self._chunk, self._chunk_at = None, -1  # Neumann matrices, at
        self._shift = 0.0

    def _kb(self, lo, hi):
        """``k*b_k`` for k = lo..hi-1 (a reversed view of the table)."""
        size = self._kbr.size
        return self._kbr[size - hi: size - lo][::-1]

    def _make_room(self, stop, end):
        """Room for the blocks below ``end``, and the error raised when a
        ``k*b_k`` below ``stop`` is inf (``k*b_k`` can overflow where b_k
        does not)."""
        size = _EXP_BLOCK
        while 2 * size <= end:
            size *= 2
        if self._kbr.size < 2 * size:  # its first product is in this fill
            self._build(2 * size)
        if self._inf < stop:  # the table reaches stop
            raise ValidationError(
                f"{self._table} overflows the float range: n*b_n is inf "
                f"from n = {self._inf}")
        # the level of length `size` reaches 3 size - 1, the others less
        if self._v.size < 3 * size:
            v = np.zeros(3 * size)
            v[:self._v.size] = self._v
            err = np.zeros(3 * size // _EXP_BLOCK)
            err[:self._err.size] = self._err
            self._v, self._err = v, err

    def _build(self, count):
        """The table of ``k*b_k`` for k < count."""
        self._kbr = np.empty(0)
        b = np.asarray(self._b_fn(count), dtype=float)
        if np.any(b < 0):
            raise ValidationError("exp-of-series input must be b_k >= 0")
        self._kbr = _reversed_kb(b)
        inf = np.flatnonzero(~np.isfinite(self._kbr[::-1]))
        self._inf = int(inf[0]) if inf.size else count
        k = np.subtract.outer(np.arange(_EXP_BLOCK), np.arange(_EXP_BLOCK))
        self._toeplitz = np.where(
            k > 0, self._kb(0, _EXP_BLOCK)[np.maximum(k, 0)], 0.0)

    def _rescale(self):
        scale = math.exp(-_RESCALE_SHIFT)
        self._v *= scale
        self._err *= scale
        self._shift += _RESCALE_SHIFT

    def _direct(self, n0, n1):
        """v_n for n = n0..n1-1 by ``_exp_step``, rescaling before v_n when
        v_{n-1} has passed the threshold (for n > n0)."""
        v = self._v
        for n in range(n0, n1):
            if n > n0 and v[n - 1] > _RESCALE_THRESHOLD:
                self._rescale()
            v[n] = _exp_step(self._kbr, v, n)

    def _block(self, n0):
        """The values of the block at n0 from its history sums."""
        size, v = _EXP_BLOCK, self._v
        if v[n0 - 1] > _RESCALE_THRESHOLD:
            self._rescale()
        n = np.arange(n0, n0 + size, dtype=float)
        sums = v[n0:n0 + size]
        # an error of e in every sum moves x by at most M D^-1 e <= e x /
        # min(sums), as M is positive
        room = (_DELTA - _gamma(_EXP_ROUNDINGS)) * sums.min()
        x = self._neumann(n0) @ (sums / n)
        nx = n * x
        lo, hi = nx.min(), nx.max()
        if not (max(hi, 1.0) <= lo * _EXP_RANGE and hi < math.inf
                and self._err[n0 // size] <= room):
            self._direct(n0, n0 + size)
            return
        v[n0:n0 + size] = x
        if x[:-1].max() > _RESCALE_THRESHOLD:  # as before v_{i+1}
            for i in range(n0, n0 + size - 1):
                if v[i] > _RESCALE_THRESHOLD:
                    self._rescale()

    def _neumann(self, n0):
        """``(I + N)(I + N^2)...(I + N^(B/2))`` for the block at n0, from
        the matrices of the ``_EXP_CHUNK`` blocks at fixed places that hold
        it, built together and kept until a block outside them comes."""
        size = _EXP_BLOCK * _EXP_CHUNK
        c0 = n0 - n0 % size
        if self._chunk_at != c0:
            n = np.arange(c0, c0 + size, dtype=float)
            power = self._toeplitz / n.reshape(_EXP_CHUNK, _EXP_BLOCK, 1)
            neumann = power + np.eye(_EXP_BLOCK)
            for _ in range(_EXP_BLOCK.bit_length() - 2):
                power = power @ power
                neumann += neumann @ power
            self._chunk, self._chunk_at = neumann, c0
        return self._chunk[(n0 - c0) // _EXP_BLOCK]

    def _products(self, end):
        """Add the history products of the levels that end at ``end``."""
        size, v = _EXP_BLOCK, self._v
        v[end:end + 2 * size - 1] += np.convolve(
            v[end - size:end], self._kb(1, 2 * size))[size - 1:]
        level = 2 * size
        while end % level == 0:
            x, y = v[end - level:end], self._kb(level, 2 * level)
            if level <= _EXP_DIRECT:
                v[end:end + 2 * level - 1] += np.convolve(x, y)
            elif end > level:
                self._fft_product(end, x, y)
            else:  # v_0 = 1 can dwarf the rest: the first block goes direct
                head = x[:size].copy()
                v[end:end + level + size - 1] += np.convolve(head, y)
                x[:size] = 0.0  # while the FFT reads x
                self._fft_product(end, x, y)
                x[:size] = head
            level *= 2

    def _fft_product(self, end, x, y):
        """Add ``x * y`` (two factors of one level's length) at ``end``, by
        FFT in pieces, and its error bound to the blocks it reaches."""
        from numpy.fft import irfft, rfft  # only when a product needs it

        piece = min(x.size // 2, _EXP_PIECE)
        count, span = x.size // piece, 2 * piece - 1
        xs, ys = x.reshape(count, piece), y.reshape(count, piece)
        fx, fy = rfft(xs, 2 * piece), rfft(ys, 2 * piece)
        nx, ny = _norms(xs), _norms(ys)
        for d in range(2 * count - 1):
            a0, a1 = max(0, d - count + 1), min(d, count - 1) + 1
            pairs = slice(d - a1 + 1, d - a0 + 1)
            spectrum = np.einsum("ij,ij->j", fx[a0:a1], fy[pairs][::-1])
            lo = end + d * piece
            self._v[lo:lo + span] += irfft(spectrum, 2 * piece)[:span]
            bound = _fft_gamma(2 * piece, a1 - a0) * float(
                np.dot(nx[a0:a1], ny[pairs][::-1]))
            self._err[lo // _EXP_BLOCK:
                      (lo + span - 1) // _EXP_BLOCK + 1] += bound

    def _fill(self, cur, stop):
        size = _EXP_BLOCK
        end = -(-stop // size) * size
        self._make_room(stop, end)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n0 in range(cur, end, size):
                if n0 == 0:
                    self._v[0] = 1.0
                    self._shift = float(
                        np.asarray(self._b_fn(1), dtype=float)[0])
                    self._direct(1, size)
                else:
                    self._block(n0)
                self._products(n0 + size)
                logs = np.log(self._v[n0:n0 + size]) + self._shift
                # the values from an inf k*b_k on are no coefficients
                yield logs[:self._inf - n0]


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
    fill stitches whole batches of ``_KOVARI_BATCH`` blocks (up to the
    cap), since a batch costs its ``L`` numpy steps however few blocks it
    holds, and yields each as it comes (the fill contract of
    ``series._PrefixSource``).

    The state ``(S / (e 2^E), E)`` at each batch start, ``rho + 1`` floats
    and an int, is kept as a checkpoint (checkpointed recomputation,
    Griewank 1992, "Achieving logarithmic growth of temporal and spatial
    complexity in reverse automatic differentiation").  The chunks of the
    first ``_CACHE_TERMS`` coefficients are kept; past them the source
    keeps two chunks and the last batch it stitched, and a read of any
    other chunk stitches its batches again from the checkpoint before it,
    with the same bits, as a batch depends only on the state carried into
    it.  So an in-order pass past the cache stitches each batch about
    once, and a scan out to ``HARD_CAP`` holds tens of MB.
    Cross-checked against mpmath and the convolution in tests.
    """

    def __init__(self, rho: int):
        super().__init__()
        self._rho = rho
        self._cache = _CACHE_TERMS
        # (S / (e 2^E), E) at each batch start; S_j(0) = a_0 = e
        self._starts = [([1.0] * (rho + 1), 0)]
        self._last = -1, None  # the last batch stitched: (b0, its logs)

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

    def _stitch(self, b0: int, b1: int, state: list, exp: int) -> tuple:
        """log a_n for n = b0*L+1 .. b1*L, stitching blocks b0..b1-1 onto
        the state ``(state, exp)`` carried into block b0, and the state
        after them."""
        a, s = self._unit_starts(b0, b1)
        starts, exps = [], []
        for matrix in s.transpose(2, 0, 1).tolist():  # [j][i] per block
            starts.append(state)
            exps.append(exp)
            # added left to right, as the builtin sum compensates from
            # Python 3.12 on, and the bits must not depend on the version
            state = [reduce(add, map(mul, row, state)) for row in matrix]
            shift = math.frexp(max(state))[1]
            state = [math.ldexp(x, -shift) for x in state]
            exp += shift
        starts = np.array(starts).T  # [i, b]
        v = a[:, 0] * starts[0]
        for i in range(1, self._rho + 1):
            v += a[:, i] * starts[i]
        exps = np.array(exps, dtype=float)
        logs = (np.log(v) + (exps * _LN2_LO + 1.0)) + exps * _LN2_HI
        return logs.T.ravel(), state, exp

    def _batch(self, b0: int, b1: int) -> np.ndarray:
        """log a_n of blocks b0..b1-1, a batch, from the checkpoint at its
        start.  The last batch stitched past the cache is kept, so that
        the next chunk read again does not stitch it again."""
        if self._last[0] == b0:
            return self._last[1]
        j = b0 // _KOVARI_BATCH
        logs, state, exp = self._stitch(b0, b1, *self._starts[j])
        if j + 1 == len(self._starts):
            self._starts.append((state, exp))
        if b1 * _KOVARI_BLOCK >= self._cache:
            self._last = b0, logs
        return logs

    def _restart(self, n):
        span = _KOVARI_BLOCK * _KOVARI_BATCH  # batch j starts at j span + 1
        return (n - 1) // span * span + 1 if n else 0

    def _fill(self, cur, stop):
        size = _KOVARI_BLOCK
        if not cur:
            yield np.ones(1)  # log a_0 = log e
        b0 = cur // size  # cur = b0 * L + 1, or 0: a batch start
        while b0 * size + 1 < stop:
            b1 = min(b0 + _KOVARI_BATCH, (self._cap - 2) // size + 1)
            yield self._batch(b0, b1)
            b0 = b1


# ---------------------------------------------------------------------------

def make_family(spec: FamilySpec) -> PowerSeries:
    """Build the series described by ``spec`` from its checked parameters."""
    p = _check_params(spec.family_id, spec.params)
    fid = spec.family_id
    if fid == "exp":
        from scipy.special import gammaln  # its only user; slow to import

        def log_factorial(n):
            n += 1.0
            gammaln(n, out=n)
            return np.subtract(0.0, n, out=n)  # +0, not -0

        return PowerSeries(
            VectorizedSource(log_factorial),
            math.inf, "exp", family_id="exp", concave_from=0,
        )
    if fid == "geometric":
        return PowerSeries(
            VectorizedSource(lambda n: np.multiply(n, 0.0, out=n)),  # +0
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
            n **= _e  # numpy's sqrt at eps = 1/2, as n ** eps is
            if n.size and n[0] == 0.0:  # n = 0 can only lead the indices
                n[0] = LOG_ZERO  # summation starts at n = 1
            return n

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
