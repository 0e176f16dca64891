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
(``_walk``), which scans each radius once and then reads the window of term
logs it found.  Pass 1 (``_scan``) computes the term logs, starting at the
previous radius's final window size, and yields the horizon of the walk's
one tolerance.  Until it has its horizon the window grows in place by an
eighth (at least 512 terms, at most up to a hard cap): only the new terms
are computed, and the horizon search resumes at the first candidate the new
terms can still change.  A walk makes one term buffer, once, of
``_BLOCK_TERMS`` (2**19) terms plus the ``TAIL_RUN + 1`` undecided ones,
and every scan and block of its radii is written into it; a window that
outgrows it slides: the buffer keeps those last terms and the running max,
and fills up with the next ones.  The accepted horizon is the smallest
``N`` passing a rule that reads only the prefix ``t[:N+51]``, so results
depend neither on the start, nor on the steps, nor on the slides.

A family whose ``log|a_n|`` is provably concave from some ``n0`` declares
it (``PowerSeries.concave_from``; see ``families``).  Its terms are then
unimodal, so a few computed terms, compared with a margin that beats
their rounding (``_slack``, which states the argument), certify three
fast paths.  Such a window's horizon is read from its peak
(``_past_peak``): one argmax for the peak, one compare over the terms past
it for the first small one, and the 50 or 51 terms that must follow it;
where one of those is big, the search decides.  When such a window
outgrows the buffer it jumps instead of sliding (``_jump``): bisections
guess the peak and the first term below the tail threshold, and one slab
of 4096 terms each side of each guess gives the slide's ``(log_mu, nu,
horizon)`` bit for bit, from about 17,000 terms past the buffer instead of
every term up to the horizon.  A scan that starts at or past the buffer's
size, as every one after a jumped radius does, need not fill the buffer
first: where ``t[n0]`` and its last two terms certify that the terms rise
to its end, its max is its last term and it holds no horizon, and that is
all the jump reads of it.  A failed certificate falls back to the fill and
then the slide; certificates that the terms still rise at ``HARD_CAP``, or
that no tail run fits below it, raise the slide's ``TruncationError`` at
once.  A monomial needs no scan at all: its max term and horizon are known
in closed form at every radius.

Pass 2 (``_Window``) hands each radius's point one object: the max term,
the central index, the horizon and the window cut at that horizon, which is
read block by block only by the points that read it.  A window that never
slid is its one in-memory buffer, one that slid or jumped is recomputed
from the series a block at a time (after a jump from a filled buffer, the
first block comes from it while the term buffer still holds it), into the
walk's one buffer, so a walk holds one window-sized buffer however large
its horizons are.  Every sum of the masses ``exp(t - m)`` of a window
starts in one place, ``_Window._sums``, which forms each block's masses and
their sum (``logdomain._sum_exp``) in place, over the block's term logs;
the block sums are combined with ``math.fsum``.  A window read after a sum
computes its terms again, with the same bits.  The sums over a whole
window, ``log_F`` and the moments of ``rosenbloom``, keep the quiet-block
rule (``_Window.read``): the quiet blocks of a declared-concave window are
its leading blocks that end 50 or more below the max term left of the
central index, each with a bound on its sum (``_Window.quiet``).
``math.fsum`` rounds correctly, so where adding the bounds leaves every
sum's bits unchanged, adding the true block sums does too, and the quiet
blocks are skipped with the bits of every block; otherwise they are read.
Readers that need every term (the distribution, sampled maxima and window
sums) read them all.  A source computes only the indices asked for: closed
forms, monomials and coefficient arrays included, hold none, and a walk
keeps their first block for all its radii.  Only a recurrence keeps what it
computed, in chunks at fixed places (``_PrefixSource``); one with
checkpoints keeps its first chunks, up to a cache, and computes the later
ones again from the checkpoint before them.  A grid may start at ``r = 0``,
the single-term window ``[log|a_0|]``.
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
from .logdomain import LOG_ZERO, _sum_exp, absorbs

DEFAULT_TOL = 1e-9
TAIL_RUN = 50
HARD_CAP = 10**8
_FIRST_WINDOW = 512
_GROWTH = 8  # a scan window grows by an eighth per step
_BLOCK = 4096  # the horizon search's block of running-max bounds
_BLOCK_TERMS = 2 ** 19  # a window slides past this many term logs
_FILL_TERMS = 2 ** 16  # terms computed per piece
_SLAB = 4096  # a jump reads this many terms on each side of a probe
_QUIET = 50.0  # pass 2 may skip a block that ends this far below log_mu
_DELTA = 2.0 ** -40  # relative bound on a term log's error (_slack)


def _put(chunk: np.ndarray, lo: int, n: int, values: np.ndarray) -> None:
    """Write the ``values`` of indices ``n, n + 1, ...`` that fall in
    ``chunk``, which holds the indices from ``lo`` on."""
    a, b = max(n, lo), min(n + values.size, lo + chunk.size)
    if a < b:
        chunk[a - lo:b - lo] = values[a - n:b - n]


class _PrefixSource:
    """A source that holds the prefix it has computed, as a recurrence must,
    in chunks of ``_FILL_TERMS`` values at fixed places: value ``n`` lives
    in chunk ``n // _FILL_TERMS``.

    The fill contract: ``_fill(cur, stop)`` yields, in order, arrays of the
    values from index ``cur`` on, at least ``stop - cur`` of them.  It may
    compute whole blocks or batches at fixed places, and so yield more;
    each array is written into the chunks as it comes, and the next fill
    starts where the values end.  A read past ``_cap`` is refused before
    any fill.  A value once written is never moved or written again, so a
    read inside one chunk (as every piece of :func:`_fill_terms` is) is a
    view of it, and a read that spans chunks is a copy.  Both are
    read-only, so no reader can change what later reads return.

    The chunks that end at or below ``_cache`` values are kept.  Past it,
    a source keeps the chunk it is filling and the one it made or read
    last, and drops the others.  Reading a dropped chunk computes it
    again, into a new chunk, by a fill from ``_restart(n)``, the last
    index at or before the chunk's start ``n`` that a fill may start from;
    that fill must give the bits it gave the first time.  A dropped chunk
    is never reused, so the views that readers hold stay valid.
    """

    _cap = HARD_CAP  # no prefix is longer
    _cache = HARD_CAP  # the chunks below this are kept
    _end = 0   # the values computed

    def __init__(self):
        self._chunks = []  # chunk k, or None once dropped
        self._other = -1   # the chunk past the cache kept beside the last

    def _fill(self, cur: int, stop: int):
        raise NotImplementedError

    def _restart(self, n: int) -> int:
        raise NotImplementedError  # a source that drops chunks defines it

    def _keep(self, k: int) -> None:
        """Chunk ``k`` was made or read: past the cache and before the last
        chunk, keep it beside the last, and drop the one kept before."""
        if k in (self._other, len(self._chunks) - 1) \
                or (k + 1) * _FILL_TERMS <= self._cache:
            return
        if self._other >= 0:
            self._chunks[self._other] = None
        self._other = k

    def _new(self, k: int) -> np.ndarray:
        """Chunk ``k``, made if it is the next one (the last may be
        short)."""
        if k == len(self._chunks):
            self._chunks.append(np.empty(
                min(_FILL_TERMS, self._cap - k * _FILL_TERMS)))
            self._keep(k - 1)
        return self._chunks[k]

    def _extend(self, stop: int) -> None:
        """Compute the prefix of ``stop`` values, writing each array of the
        fill into the chunks as it comes."""
        if stop > self._cap:
            raise ValidationError(
                f"{stop} coefficients asked for, past the cap of "
                f"{self._cap}")
        n = self._end
        if stop > n:
            # made before the fill's temporaries, which then fragment the
            # heap less (0.5 MB of peak RSS on the boundary workload)
            self._new(n // _FILL_TERMS)
            for values in self._fill(n, stop):
                for k in range(n // _FILL_TERMS,
                               -(-(n + values.size) // _FILL_TERMS)):
                    _put(self._new(k), k * _FILL_TERMS, n, values)
                n += values.size
                self._end = n

    def _stored(self, k: int) -> np.ndarray:
        """Chunk ``k``, computed again into a new chunk if it was dropped."""
        chunk = self._chunks[k]
        if chunk is None:
            chunk, lo = np.empty(_FILL_TERMS), k * _FILL_TERMS
            n = self._restart(lo)
            for values in self._fill(n, lo + _FILL_TERMS):
                _put(chunk, lo, n, values)
                n += values.size
                if n >= lo + _FILL_TERMS:
                    break
            self._chunks[k] = chunk
        self._keep(k)
        return chunk

    def block(self, lo, hi):
        """``log|a_n|`` for ``lo <= n < hi``, read-only."""
        self._extend(hi)
        parts = [self._stored(k)[max(lo - k * _FILL_TERMS, 0):
                                hi - k * _FILL_TERMS]
                 for k in range(lo // _FILL_TERMS, -(-hi // _FILL_TERMS))]
        out = parts[0] if len(parts) == 1 else np.concatenate(
            parts or [np.empty(0)])
        out.flags.writeable = False
        return out

    def terms(self, t: np.ndarray, x: float, lo: int) -> None:
        """Write ``log|a_n| + n*x``, ``lo <= n < lo + t.size``, into ``t``,
        adding a read of the prefix: a view where it lies in one chunk."""
        np.multiply(np.arange(lo, lo + t.size, dtype=float), x, out=t)
        t += self.block(lo, lo + t.size)


class VectorizedSource:
    """Source backed by a vectorized formula ``fn(n) -> log|a_n|``.

    The formula contract: ``fn`` gets the indices ``lo, lo + 1, ...`` of
    one read as a fresh float array ``n``, which it may overwrite, and
    returns ``log|a_n|`` as an array of their size, which may be ``n``
    itself.  So a read of term logs (:meth:`terms`) makes one index array
    per piece and no other temporary.  Each read computes its values from
    the formula; the source holds nothing.  A value of NaN or +inf is no
    coefficient's log.
    """

    def __init__(self, fn):
        self._fn = fn

    def _values(self, n: np.ndarray, lo: int) -> np.ndarray:
        """``fn(n)`` for the indices ``n`` from ``lo``, checked in one
        pass; the bad index is searched for only where there is one."""
        values = np.asarray(self._fn(n), dtype=float)
        if values.size and not values.max() < math.inf:  # NaN or +inf
            i = int(np.argmin(values < math.inf))
            raise DomainError(
                f"coefficient formula produced {values[i]} at n={lo + i}",
                subexpression="log_coeff(n)",
            )
        return values

    def block(self, lo, hi):
        return self._values(np.arange(lo, hi, dtype=float), lo)

    def terms(self, t: np.ndarray, x: float, lo: int) -> None:
        """Write ``log|a_n| + n*x``, ``lo <= n < lo + t.size``, into ``t``:
        ``n*x`` first, as the formula may then overwrite ``n``."""
        n = np.arange(lo, lo + t.size, dtype=float)
        np.multiply(n, x, out=t)
        t += self._values(n, lo)


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

    ``source.block(lo, hi)`` gives ``log|a_n|`` for ``lo <= n < hi``, the
    same values on every call, and ``source.terms(t, x, lo)`` writes the
    term logs ``log|a_n| + n*x``, ``lo <= n < lo + t.size``, into ``t``,
    with the bits of ``n*x`` plus ``block``'s values; it must be safe to
    query under the series's lock while readers hold arrays it returned
    earlier.

    Instances are immutable apart from a recurrence source's internal,
    lock-protected coefficient cache, so they are safe to share between
    concurrent readers.  A series keeps no scan state: the walk over several
    radii (:func:`_walk`) owns the scan buffers and passes each scan's final
    window size as the next scan's start, and results are bitwise
    independent of the start.

    ``monomial_degree = k`` declares that ``a_k`` is the one nonzero
    coefficient.  ``concave_from = n0`` declares that ``log|a_n|`` is
    ``-inf`` below ``n0`` and finite and concave in ``n`` from ``n0`` on,
    and that a source value is within ``_DELTA`` of ``log|a_n|`` relative
    to its magnitude: the certificates of :func:`_slack` rest on it.  Each
    declaration is ``None`` or an ``int >= 0``.
    """

    def __init__(
        self,
        source,
        radius: float,
        label: str = "series",
        family_id: str | None = None,
        monomial_degree: int | None = None,
        concave_from: int | None = None,
    ):
        if not (radius > 0):
            raise ValidationError(f"radius must be positive, got {radius}")
        for name, v in (("monomial_degree", monomial_degree),
                        ("concave_from", concave_from)):
            if v is not None and not (type(v) is int and v >= 0):
                raise ValidationError(f"{name} must be an int >= 0, not {v!r}")
        self._source = source
        self.radius = float(radius)
        self.label = label
        self.family_id = family_id
        self.monomial_degree = monomial_degree
        self.concave_from = concave_from
        self._lock = threading.Lock()

    @classmethod
    def from_log_coeffs(
        cls,
        values,
        radius: float = math.inf,
        label: str = "series",
    ) -> "PowerSeries":
        """The polynomial with ``log|a_n| = values[n]``, zero beyond."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("log coefficient array must be 1-d")
        if np.isnan(arr).any() or np.isposinf(arr).any():
            raise ValidationError("log coefficients must be finite or -inf")
        padded = np.append(arr, LOG_ZERO)  # every n >= arr.size reads -inf
        source = VectorizedSource(
            lambda n: padded[np.minimum(n, arr.size).astype(np.intp)])
        series = cls(source, radius, label)
        series._known_all_zero = not np.any(arr > LOG_ZERO)
        series._known_finite_support = True
        return series

    _known_all_zero = False
    _known_finite_support = False

    def log_coeff(self, n: int) -> float:
        """log|a_n|; ``-inf`` exactly when the coefficient vanishes."""
        if n < 0:
            raise ValidationError(f"coefficient index must be >= 0, got {n}")
        return float(self._coeffs(n, n + 1)[0])

    def log_coeffs(self, stop: int) -> np.ndarray:
        """log|a_n| for ``n < stop``.  A recurrence's prefix is read-only,
        a view of its first chunk or a copy of several; copy it to write."""
        return self._coeffs(0, stop)

    def _coeffs(self, lo: int, hi: int) -> np.ndarray:
        with self._lock:
            return self._source.block(lo, hi)

    def _write_terms(self, t: np.ndarray, x: float, lo: int) -> None:
        with self._lock:
            self._source.terms(t, x, lo)

    def _terms(self, x: float, stop: int) -> np.ndarray:
        """Term logs ``log|a_n| + n*x`` for ``n < stop``, built at once: the
        window that :func:`_fill_terms` must repeat piece by piece."""
        t = np.arange(stop, dtype=float)
        t *= x
        t += self.log_coeffs(stop)
        return t

    def __repr__(self):  # pragma: no cover
        return f"PowerSeries({self.label!r}, radius={self.radius})"


def _last_max(w: np.ndarray, lo: int, prior: tuple) -> tuple:
    """The max of the terms ``w`` (indices ``lo``, ``lo + 1``, ...) and of
    the terms before them, and the last index holding it, given ``prior``,
    the same pair for the terms before ``lo``.  ``argmax`` gives the first
    index of the max (the sources give no NaN), and only the terms after
    it are searched for a tie; ``argmax`` of the reversed terms would copy
    them all."""
    if w.size == 0:
        return prior
    i = int(np.argmax(w))
    m = float(w[i])
    if m < prior[0]:
        return prior
    ties = (w[i + 1:] == m).nonzero()[0]
    if ties.size:
        i += 1 + int(ties[-1])
    return m, lo + i


def _first_horizon(seg: np.ndarray, big: np.ndarray, lo: int,
                   prior: tuple) -> _Scan | None:
    """Smallest accepted horizon ``p >= lo``, given the terms ``seg[n - lo]
    = t[n]`` and ``big[n - lo] = t[n] >= threshold[n]`` for ``n >= lo``,
    and ``prior`` from :func:`_last_max`."""
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
        log_mu, nu = _last_max(seg[:p + 1 - lo], lo, prior)
        if p > nu:
            return _Scan(log_mu, nu, p)
        if lengths[i] >= TAIL_RUN + 1:
            if seg[p + 1 - lo] >= seg[p - lo]:
                nu = p + 1
            return _Scan(float(seg[nu - lo]), nu, p + 1)
    return None


def _find_horizon(seg: np.ndarray, log_tail_tol: float, lo: int = 0,
                  prior: tuple = (LOG_ZERO, -1)) -> _Scan | None:
    """Smallest accepted horizon within a term prefix, or ``None``.

    Accepts the smallest ``N`` strictly beyond the running central index such
    that the 50 terms after ``N`` each sit below ``running_max +
    log_tail_tol``.  Ties for the max break upward.

    ``seg`` holds the prefix's terms from index ``lo`` on (``seg[i] =
    t[lo + i]``), and only the candidates ``N >= lo`` are examined;
    ``prior`` is the running max and its index up to ``lo``, as
    :func:`_last_max` gives it.  A search that resumes on a longer prefix
    passes ``lo = old_size - TAIL_RUN - 1``: every earlier candidate has its
    50 following terms inside the old prefix and was already decided.

    The running max at an index lies between the max before its block and
    the max at the block's end.  Rounding is monotone, so a block whose
    minimum clears ``end_max + log_tail_tol`` is all big, one whose maximum
    stays below ``prior_max + log_tail_tol`` is all small, and only the
    blocks in between need the running max term by term.
    """
    starts = np.arange(0, seg.size, _BLOCK)
    bmax = np.maximum.reduceat(seg, starts)
    bmin = np.minimum.reduceat(seg, starts)
    end_max = np.maximum.accumulate(bmax)
    np.maximum(end_max, prior[0], out=end_max)
    prior_max = np.concatenate(([prior[0]], end_max[:-1]))
    all_big = bmin >= end_max + log_tail_tol
    big = np.repeat(all_big, _BLOCK)[:seg.size]
    for b in np.flatnonzero(~all_big & (bmax >= prior_max + log_tail_tol)):
        i = b * _BLOCK
        blk = seg[i:i + _BLOCK]
        thr = np.maximum.accumulate(blk)
        np.maximum(thr, prior_max[b], out=thr)
        thr += log_tail_tol
        big[i:i + _BLOCK] = blk >= thr
    return _first_horizon(seg, big, lo, prior)


def _past_peak(tail: np.ndarray, start: int, log_mu: float, nu: int,
               log_tail_tol: float) -> _Scan | None | bool:
    """The horizon :func:`_find_horizon` accepts in a prefix ``t[:stop]``
    of terms that fall past their peak, from the terms ``tail[n - start] =
    t[n]``, ``start <= n < stop``, where ``(log_mu, nu)`` is the max of the
    prefix and the last index holding it, ``start > nu``, and every term
    before ``start`` is big under the run rule.  ``None`` while the prefix
    holds no horizon, and ``False`` where a term of the tail run is big:
    then this rule cannot tell, and the search must.

    Past ``nu`` the running max is ``log_mu``, so a term there is small
    exactly when it lies below ``theta = log_mu + log_tail_tol``.  Let
    ``q`` be the first small one.  Every term before ``q`` is big, so ``p =
    q - 1`` is the first index followed by a small term: where the
    ``TAIL_RUN`` terms from ``q`` are small, the horizon is ``p`` if ``p >
    nu``, and if ``p = nu``, ``q``, with one more small term.  No index can
    have a tail run that the prefix cuts off.

    For a declared series whose :func:`_slack` is below ``-log_tail_tol``,
    a term is big where its running max is at most a later term: every
    term before ``nu`` is, and past it every term before a ``t[k] > theta
    + slack``.  The terms below ``n0`` are ``-inf``, big under a running
    max of ``-inf``.
    """
    theta = log_mu + log_tail_tol
    below = tail < theta
    if not below.size:
        return None  # the prefix ends at its peak
    i = int(np.argmax(below))
    if not below[i]:
        return None  # no small term yet
    q = start + i
    need = TAIL_RUN + (q - 1 == nu)
    run = tail[i:i + need]
    if not (run < theta).all():
        return False
    if run.size < need:
        return None  # cut off by the end of the prefix
    return _Scan(log_mu, nu, q - 1 if q - 1 > nu else q)


def _buffer_size() -> int:
    """Terms a scan buffer holds: a block and the undecided tail."""
    return _BLOCK_TERMS + TAIL_RUN + 1


class _FirstBlock(_PrefixSource):
    """The first :func:`_buffer_size` coefficients of a series whose source
    holds none, kept for the radii of one walk: the term logs below them
    add those (the prefix reader), the later ones are asked of the series
    each time."""

    def __init__(self, series: PowerSeries):
        super().__init__()
        self._series = series
        self._cap = _buffer_size()

    def _fill(self, cur, stop):
        yield self._series._coeffs(cur, stop)

    def terms(self, t, x, lo):
        k = min(max(self._cap - lo, 0), t.size)  # the terms below the cap
        if k:
            super().terms(t[:k], x, lo)
        if k < t.size:
            self._series._write_terms(t[k:], x, lo + k)


def _writer(series: PowerSeries):
    """The writer of a walk's term logs, ``terms(t, x, lo)``
    (``source.terms``, see :class:`PowerSeries`), which holds the first
    block of coefficients of a series whose source holds no prefix."""
    return series._write_terms if isinstance(
        series._source, _PrefixSource) else _FirstBlock(series).terms


def _fill_terms(terms, out: np.ndarray, x: float, lo: int) -> None:
    """Write the term logs ``log|a_n| + n*x`` for ``lo <= n < lo +
    out.size`` into ``out``, piece by piece, by ``terms(t, x, a)`` (the
    walk's writer, :func:`_writer`).

    Built elementwise, ``n*x`` and then ``log|a_n|`` added, so a window
    filled piece by piece repeats the values of one filled at once bit for
    bit.  The pieces end at the multiples of ``_FILL_TERMS``, so a
    recurrence's piece adds a view of one of its chunks
    (``_PrefixSource``), a formula's piece is written in place with one
    index array as its only temporary (``VectorizedSource``), and the
    allocator reuses temporaries that small, while each fresh page of a
    large one costs a page fault.  An ``n*x`` past the float range is
    ``-inf`` at an ``x`` far below 0, the term that vanishes.
    """
    with np.errstate(over="ignore"):  # once, not per piece: about 1 us
        a, end = lo, lo + out.size
        while a < end:
            b = min(a - a % _FILL_TERMS + _FILL_TERMS, end)
            terms(out[a - lo:b - lo], x, a)
            a = b


def _read(terms, x: float, lo: int, hi: int) -> np.ndarray:
    """The term logs ``t[n]``, ``lo <= n < hi``, as :func:`_fill_terms`
    computes them."""
    out = np.empty(hi - lo)
    _fill_terms(terms, out, x, lo)
    return out


def _slack(x: float, n: int, *ends) -> float:
    """``2 * delta``, the margin that every certificate on the computed
    terms ``t[m]``, ``n0 <= m < n``, of a series declared concave from
    ``n0`` must beat, where ``ends`` are ``t[n0]`` and terms that bound
    the others there.

    The exact terms ``t(m) = log|a_m| + m x`` are ``-inf`` below ``n0`` and
    concave from it, so unimodal at every ``x``, and on ``[n0, n)`` they
    lie in the concave hull of ``ends``: ``|log|a_m|| + m |x| <= T + 2 n
    |x|``, with ``T`` the largest ``|t|`` of ``ends``.  A source value is
    within ``_DELTA`` of ``log|a_m|`` relative to its magnitude, a few ulps
    with room for two more roundings, so each computed term is within
    ``delta = _DELTA * (T + 2 n |x|)`` of the exact one, and margins of ``2
    * delta`` need no further rounding care.  For computed terms of ``[n0,
    n)``, then:

    - a margin ``t[j] - t[i]`` above ``2 * delta`` orders the exact terms
      the same way, and by concavity the exact terms past them;
    - ``t[i] >= min(t[j], t[k]) - 2 * delta`` for ``j <= i <= k``;
    - ``t[i] <= t[k] + 2 * delta`` for ``i <= k`` where the exact terms
      rise up to ``k``.
    """
    return 2 * (_DELTA * (max(abs(v) for v in ends) + 2 * n * abs(x)))


def _no_horizon(series: PowerSeries, x: float) -> TruncationError:
    """The error of a scan that reaches ``HARD_CAP`` without a horizon."""
    return TruncationError(
        f"no certified horizon for {series.label!r} at log r={x:g} "
        f"within {HARD_CAP} terms",
        horizon=HARD_CAP,
    )


def _jump(series: PowerSeries, terms, x: float, log_tail_tol: float,
          size: int, t_n0: float, last: float, prior: tuple) -> _Scan | None:
    """The :class:`_Scan` a slide would find for a series declared concave
    from ``n0`` (``series.concave_from``), given what it needs of the first
    buffer of term logs ``t[n]``, ``n < size``, which holds no horizon:
    ``t_n0 = t[n0]`` (``n0 < size``), its ``last`` term ``t[size - 1]`` and
    ``prior``, its max and the last index holding it (:func:`_last_max`).
    ``None`` where a certificate fails, and then the scan slides.  A
    certificate is a set of margins between computed terms that each beat
    :func:`_slack` up to the end of the reads, with ``t[n0]``, the peak and
    the last terms read as its ends.

    1. The peak.  A bisection on ``t[m+1] < t[m]`` out to ``HARD_CAP``
       guesses it, and a slab of ``_SLAB`` terms on each side of the guess
       (clamped to start after the buffer) is read.  ``(log_mu, nu)`` is the
       max of the buffer and the slab and its last index.  Certified: the
       slab's last term, and the end nearer the peak of any gap between the
       buffer and the slab, lie below ``log_mu``, so every unread term lies
       further below.
    2. The horizon.  A bisection guesses ``q``, the first term past ``nu``
       below ``theta = log_mu + log_tail_tol``, and the slab ``[q - _SLAB,
       q + _SLAB + TAIL_RUN]`` (starting after ``nu``) is read.  Certified:
       its first term, and ``log_mu`` itself, lie above ``theta``, so every
       term before the slab is big under the run rule (:func:`_past_peak`),
       and the slab's horizon from its peak (or, where that cannot tell,
       its search from ``prior = (log_mu, nu)``) is the slide's.

    A jump computes about 17,000 terms past the buffer.  Each comes from
    :func:`_fill_terms`, with the bits the slide computes, so the result is
    the slide's bit for bit.  Where the certificates show that the terms
    still rise at ``HARD_CAP``, or that no tail run fits below it, it raises
    the slide's :class:`TruncationError`.
    """
    if not size + _SLAB < HARD_CAP:
        return None

    def first(lo, hi, pred):
        """The smallest ``n`` in ``[lo, hi)`` with ``pred(n)``, else ``hi``,
        for a ``pred`` false and then true."""
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
        return lo

    m = first(size - 1, HARD_CAP - 1,  # the first n with t[n + 1] < t[n]
              lambda n: np.greater(*_read(terms, x, n, n + 2)))
    lo, hi = max(m - _SLAB, size), min(m + _SLAB + 1, HARD_CAP)
    slab = _read(terms, x, lo, hi)
    log_mu, nu = _last_max(slab, lo, prior)
    if nu == HARD_CAP - 1:  # still rising at the cap: no term is small
        if min(-log_tail_tol, slab[-1] - slab[-2]) > _slack(
                x, hi, t_n0, slab[-1]):
            raise _no_horizon(series, x)
        return None
    margins = [-log_tail_tol, log_mu - slab[-1]]
    if lo > size:  # the gap's terms lie below its end nearer the peak
        margins.append(log_mu - (slab[0] if nu >= lo else last))

    theta = log_mu + log_tail_tol
    end = HARD_CAP - TAIL_RUN  # the last index a tail run can start at
    q = first(nu + 1, end + 1,
              lambda n: _read(terms, x, n, n + 1)[0] < theta)
    if q > end:  # no tail run fits below the cap
        past = log_mu  # a new end only where a term is read
        if nu < end:  # the terms up to ``end`` stay big
            (past,) = _read(terms, x, end, end + 1)
            margins.append(past - theta)
        if min(margins) > _slack(x, max(hi, end + 1), t_n0, log_mu,
                                 slab[-1], past):
            raise _no_horizon(series, x)
        return None
    lo2, hi2 = max(q - _SLAB, nu + 1), min(q + _SLAB + TAIL_RUN + 1, HARD_CAP)
    slab2 = _read(terms, x, lo2, hi2)
    if not min(*margins, slab2[0] - theta) > _slack(
            x, max(hi, hi2), t_n0, log_mu, slab[-1], slab2[-1]):
        return None
    scan = _past_peak(slab2, lo2, log_mu, nu, log_tail_tol)
    if scan is False:
        return _find_horizon(slab2, log_tail_tol, lo2, (log_mu, nu))
    return scan


def _scan(series: PowerSeries, x: float, tol: float,
          start: int = _FIRST_WINDOW, terms=None,
          buf: np.ndarray | None = None) -> tuple:
    """Pass 1: scan the term logs at ``x = log r`` for the horizon of ``tol``.

    The window starts at ``start`` terms (at least 512, at most
    ``HARD_CAP``) and grows by a ``1/_GROWTH`` share (at least 512 terms)
    until it holds an accepted horizon.  Each step computes only the new
    terms, and the search resumes where the last one could still change
    its answer (see :func:`_find_horizon`).  In a buffer that has not
    slid, a window declared concave (``concave_from = n0``) with ``n0 <
    stop``, a finite max and a :func:`_slack` below ``-log_tail_tol``
    (with ``t[n0]``, the max and the last term as ends) takes its horizon
    from its peak instead (:func:`_past_peak`); the search for the first
    small term resumes at ``max(nu + 1, lo)`` while every step past ``n0``
    has been decided so, and once one is not, the search decides every
    later one.
    Where the max ``(log_mu, nu)`` that the rule read lies before the
    resume point, it is the next step's ``prior``, not read again.
    The terms come from the walk's writer ``terms`` (:func:`_writer`) and
    live in its term buffer ``buf`` of :func:`_buffer_size` values (new
    ones if not given): the window grows in place while it fits, and then
    slides, keeping the ``TAIL_RUN + 1`` terms the search resumes at;
    while ``start`` is ahead, each step fills the buffer.  A series
    declared concave (``concave_from``) whose first buffer fills without a
    horizon jumps instead (:func:`_jump`): it reads slabs around its peak
    and its horizon and certifies that every term it skips leaves the
    slide's result unchanged; if a certificate fails, it slides.  One whose ``start`` is at or past the buffer's size first
    reads ``t[n0]`` and the buffer's last two terms: where their margins
    beat :func:`_slack`, the exact terms rise to the buffer's end, so its
    max is its last term and it holds no horizon, and the scan jumps
    without filling it; where a margin fails, or the jump does, it fills
    the buffer and goes on as above.  Returns ``(scan, t, stop)``: the
    :class:`_Scan`, the first buffer of terms ``t[:stop]`` if the window
    never slid (a jump from a filled buffer keeps it, one without it and a
    slid window give ``None``) and the window's size, which is the next
    radius's start (after a jump, the size the horizon reads).
    :func:`_walk` checks the series and the tolerance.
    """
    log_tail_tol = math.log(tol / TAIL_RUN)
    size = _buffer_size()
    terms = _writer(series) if terms is None else terms
    buf = np.empty(size) if buf is None else buf
    start = min(max(start, _FIRST_WINDOW), HARD_CAP)
    lo, prior = 0, (LOG_ZERO, -1)
    base, stop, grown = 0, 0, min(start, size)  # buf[i] holds t[base + i]
    # while the peak rule decides every step past n0, the terms from the
    # peak up to lo are big, and its search resumes at lo
    n0 = series.concave_from
    peaked = n0 is not None
    if peaked and start >= size and n0 < size - 1:
        # Where t[size - 1] beats t[size - 2] by the slack, the exact terms
        # rise to the buffer's end (_slack), so every computed term before
        # t[size - 1] lies below it and above its running max less the
        # slack: the buffer's max is its last term, and no term of it is
        # small.  A finite slack needs finite ends.
        (t_n0,) = _read(terms, x, n0, n0 + 1)
        before, last = _read(terms, x, size - 2, size)
        slack = _slack(x, size, t_n0, last)
        if slack < min(-log_tail_tol, last - before):
            scan = _jump(series, terms, x, log_tail_tol, size, t_n0, last,
                         (last, size - 1))
            if scan is not None:
                return scan, None, scan.horizon + TAIL_RUN + 1
    while True:
        _fill_terms(terms, buf[stop - base:grown - base], x, stop)
        stop = grown
        scan, seen = False, None
        if peaked and base == 0 and n0 < stop:
            seen = log_mu, nu = _last_max(buf[lo:stop], lo, prior)
            peaked = math.isfinite(log_mu) and _slack(
                x, stop, buf[n0], log_mu, buf[stop - 1]) < -log_tail_tol
            if peaked:
                past = max(nu + 1, lo)
                scan = _past_peak(buf[past:stop], past, log_mu, nu,
                                  log_tail_tol)
                peaked = scan is not False
        if scan is False:
            scan = _find_horizon(buf[lo - base:stop - base], log_tail_tol, lo,
                                 prior)
        if scan is not None:
            return scan, (buf[:stop] if base == 0 else None), stop
        if stop >= HARD_CAP:
            raise _no_horizon(series, x)
        if stop == size and base == 0 and n0 is not None and n0 < stop:
            scan = _jump(series, terms, x, log_tail_tol, size, buf[n0],
                         buf[stop - 1],
                         seen or _last_max(buf[lo:stop], lo, prior))
            if scan is not None:
                return scan, buf[:stop], scan.horizon + TAIL_RUN + 1
        resume = max(stop - TAIL_RUN - 1, 0)
        # the max up to stop is the max up to resume if it lies before it
        prior = seen if seen and seen[1] < resume else _last_max(
            buf[lo - base:resume - base], lo, prior)
        lo = resume
        if stop - base == size:  # full: keep the terms from lo on
            buf[:stop - lo] = buf[lo - base:stop - base]
            base = lo
        grown = min(max(stop + max(stop // _GROWTH, _FIRST_WINDOW), start),
                    base + size, HARD_CAP)


class _Window:
    """Pass 2: the term logs ``t[n]``, ``n < size``, at ``x = log r``: one
    radius's window cut at its horizon, read block by block, with what
    pass 1 found there: ``log_mu = max(t)``, the central index ``nu`` and
    the ``horizon``.

    A range of at most :func:`_buffer_size` terms is one block, a longer
    one blocks of ``_BLOCK_TERMS``.  A window that never slid is its
    in-memory buffer ``t``; one that slid or jumped is recomputed from the
    series by the walk's writer ``terms``, one block at a time, into the
    first values of the walk's term buffer ``buf``, except that after a
    jump from a filled first buffer ``t`` is that buffer, which serves the
    reads inside it until the first block is recomputed over it.  A sum
    (:meth:`_sums`) writes the masses over the terms, so the window then
    drops ``t``, and later reads compute their blocks again, with the bits
    the scan gave them.  The ``r = 0`` window ``[log|a_0|]`` hands out a
    new array per read, as ``0 * log 0`` is no term.  A block is valid
    until the next one is read and must not be written but by
    :meth:`_sums`.  ``log_F``, the log-sum-exp of the window, is summed
    when it is first read.
    """

    def __init__(self, x, scan: _Scan, size, t, terms, buf, log_F=None,
                 concave_from=None):
        self.x, self.size, self._n0 = x, size, concave_from
        self.log_mu, self.nu, self.horizon = scan.log_mu, scan.nu, scan.horizon
        self._t, self._terms, self._buf, self._log_F = t, terms, buf, log_F

    def blocks(self, lo: int = 0, hi: int | None = None,
               first: int | None = None):
        """``(start, terms)`` for the blocks that cover ``lo <= n < hi``,
        from the one that starts at ``first`` (``lo`` if not given)."""
        hi = self.size if hi is None else hi
        step = hi - lo if hi - lo <= _buffer_size() else _BLOCK_TERMS
        for a in range(lo if first is None else first, hi, step):
            b = min(a + step, hi)
            if self.x == -math.inf:
                yield a, np.full(b - a, self.log_mu)
            elif self._t is not None and b <= self._t.size:
                yield a, self._t[a:b]
            else:
                self._t = None  # the term buffer holds other terms now
                out = self._buf[:b - a]
                _fill_terms(self._terms, out, self.x, a)
                yield a, out

    def _sums(self, lo: int, hi: int, m: float, first: int | None = None):
        """``(start, e, s0)`` for the blocks of :meth:`blocks`: the masses
        ``e = exp(t - m)``, written over the block's terms ``t`` and valid
        until the next block, and their sum ``s0``
        (:func:`~wvlab.logdomain._sum_exp`)."""
        for a, t in self.blocks(lo, hi, first):
            self._t = None  # its terms become masses
            yield a, t, _sum_exp(t, m, t)

    def read(self, kernel, absorbed) -> list:
        """The results ``kernel(start, e, s0)`` of the blocks whose masses
        ``e = exp(t - log_mu)`` (:meth:`_sums`; ``log_mu`` finite) are not
        all 0, under the quiet-block rule (see the module): the quiet
        blocks ``[0, end)`` of :meth:`quiet` are read last, and only where
        ``absorbed(parts, end, beta)`` is false for the results ``parts``
        of the others."""
        def results(hi, first=None):
            return [kernel(a, e, s0) for a, e, s0
                    in self._sums(0, hi, self.log_mu, first) if s0]

        end, beta = self.quiet()
        parts = results(self.size, end)
        if end and not absorbed(parts, end, beta):
            parts += results(end)
        return parts

    def quiet(self) -> tuple:
        """``(end, beta)``: the quiet blocks cover ``[0, end)``, and
        ``beta`` bounds the sum of ``exp(t[n] - log_mu)`` over them, as
        :func:`~wvlab.logdomain._sum_exp` computes it, whatever its
        rounding.

        A block that ends at ``e < nu`` with ``t[e] <= log_mu - _QUIET`` is
        quiet.  Where ``_QUIET`` beats :func:`_slack` (with ``t[n0]``,
        ``log_mu`` and the window's last term as ends), the exact terms
        rise up to ``e``, and each computed term of the block is at most
        ``t[e] + slack``: the block's sum is at most ``B * exp(t[e] + slack
        - log_mu)`` for ``B`` terms.  ``beta`` doubles it, and adds the
        least subnormal per term, for the roundings of ``exp`` and of the
        sum.  ``(0, 0.0)`` for an undeclared series or a window of one
        block."""
        n0, step, x, terms = self._n0, _BLOCK_TERMS, self.x, self._terms
        if n0 is None or self.size <= _buffer_size() \
                or not math.isfinite(self.log_mu):
            return 0, 0.0
        ends = []
        for e in range(step - 1, self.nu, step):
            (t_e,) = _read(terms, x, e, e + 1)
            if not t_e <= self.log_mu - _QUIET:
                break
            ends.append(t_e)
        if not ends:
            return 0, 0.0
        slack = _slack(x, self.size, self.log_mu, *(
            _read(terms, x, n, n + 1)[0] for n in (n0, self.size - 1)))
        if not slack < _QUIET:
            return 0, 0.0
        return len(ends) * step, math.fsum(
            2 * step * (math.exp(t_e + slack - self.log_mu) + 2.0 ** -1074)
            for t_e in ends)

    def log_sum_exp(self, lo: int = 0, hi: int | None = None,
                    m: float | None = None) -> float:
        """log of the sum of ``exp(t[n])`` over ``lo <= n < hi``, given ``m``,
        the range's max, or reading it from the blocks first; a non-finite
        ``m`` is the result."""
        hi = self.size if hi is None else hi
        if m is None:
            m = max(float(t.max()) for _, t in self.blocks(lo, hi))
        if not math.isfinite(m):
            return m
        return m + math.log(math.fsum(s for _, _, s in self._sums(lo, hi, m)))

    @property
    def log_F(self) -> float:
        """The log-sum-exp of the window, under the quiet-block rule.  A
        window with no finite term (``r = 0`` with ``a_0 = 0``) is given
        its ``log_F``, as is a monomial's; a scan finds a finite max."""
        if self._log_F is None:
            self._log_F = self.log_mu + math.log(math.fsum(self.read(
                lambda lo, e, s0: s0, lambda s, end, beta: absorbs(s, beta))))
        return self._log_F


def log_radius(r: float) -> float:
    """``x = log r`` for ``r >= 0``; ``r = 0`` maps to ``x = -inf``."""
    if not r >= 0:
        raise ValidationError(f"radius must be >= 0, got {r}")
    return math.log(r) if r > 0 else -math.inf


def _walk(series: PowerSeries, xs, tol: float, point,
          scale: float = 1.0) -> list:
    """``point(window)`` at each ``x = log r`` of ``xs``, in order.

    The one walk through radii; nothing else calls :func:`_scan`.  It checks
    the series and the tolerance once (at most ``TAIL_RUN``; scans run at
    ``tol * scale``; the moment sums ask for ``scale = 1e-6``; errors name
    ``tol``), then each x.  ``x = -inf`` (``r = 0``) is the single-term
    window ``[log|a_0|]``, with the horizon a monomial has at every radius
    (1 for other series).  A monomial ``c z^k`` needs no scan at any x
    while ``k + 52 <= HARD_CAP`` (the run rule puts its horizon at ``k +
    1``, with ``nu = k``): its max term and ``log_F`` are its one finite
    term, ``k*x + log|c|`` rounded as :func:`_fill_terms` rounds it.  Any
    other x is one scan (pass 1), starting from the previous radius's final
    window.  ``window`` is the :class:`_Window` cut at the horizon.  Pass 2
    runs only for a ``point`` that reads the window or its ``log_F``.
    ``point`` must not keep the window: the walk makes its writer of term
    logs (:func:`_writer`) and its one term buffer of :func:`_buffer_size`
    values once, and they serve every radius in turn.
    """
    if series._known_all_zero:
        raise DegenerateSeriesError(
            f"series {series.label!r} has no nonzero coefficient")
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValidationError(
            f"tolerance must be finite and > 0, got {tol!r}")
    if not tol * scale > 0:
        raise ValidationError(
            f"tolerance must not be so small that the scans' "
            f"tol*{scale:g} underflows to 0, got {tol!r}")
    if tol > TAIL_RUN:
        raise ValidationError(
            f"tolerance must be at most {TAIL_RUN}: above it the run rule's "
            f"threshold max_term * tol / {TAIL_RUN} exceeds every term, and "
            f"no horizon is ever accepted, got {tol!r}")
    log_R = math.log(series.radius)
    terms, buf = _writer(series), np.empty(_buffer_size())
    start, out = _FIRST_WINDOW, []
    k = series.monomial_degree
    closed = k is not None and k + TAIL_RUN + 2 <= HARD_CAP
    for x in xs:
        x = float(x)
        if not x < math.inf:
            raise ValidationError(f"x must be finite, got {x}")
        if x >= log_R:
            raise DomainError(f"x={x:g} is at or beyond the convergence "
                              f"boundary log R={log_R:g}")
        if x == -math.inf:
            t, log_F = None, series.log_coeff(0)
            scan = _Scan(log_F, 0, (series.monomial_degree or 0) + 1)
            window = _Window(x, scan, 1, t, terms, buf, log_F)
        elif closed:  # z^k: its one finite term is the max and the sum
            t, log_mu = None, k * x + series.log_coeff(k)  # as _fill_terms
            window = _Window(x, _Scan(log_mu, k, k + 1), k + 2, t, terms,
                             buf, log_mu)
        else:
            scan, t, start = _scan(series, x, tol * scale, start, terms, buf)
            size = scan.horizon + 1
            window = _Window(x, scan, size, None if t is None else t[:size],
                             terms, buf, concave_from=series.concave_from)
        out.append(point(window))
        del t, window  # no window outlives its point
    return out


def _at(series: PowerSeries, r: float, tol: float, point):
    """:func:`_walk` at the one radius ``r``."""
    (value,) = _walk(series, (log_radius(r),), tol, point)
    return value


def truncation_horizon(series: PowerSeries, r: float, tol: float) -> int:
    """Smallest accepted summation horizon at radius ``r``.

    The exact value is implementation-reported, not contractual; what the
    contract guarantees is that the 50 terms after the horizon each fall
    below ``mu * tol / 50`` and the horizon exceeds the central index.
    """
    return _at(series, r, tol, lambda window: window.horizon)


def log_max_term(series: PowerSeries, r: float) -> MaxTermResult:
    """Max term log and central index at radius ``r``.

    Ties break upward among the computed terms: ``central_index`` is the
    last index holding the largest computed term.  Terms tied in exact
    arithmetic may round apart, so an exact tie can land on any of its
    indices."""
    return _at(series, r, DEFAULT_TOL,
               lambda window: MaxTermResult(window.log_mu, window.nu))


def log_positive_value(series: PowerSeries, r: float,
                       tol: float = DEFAULT_TOL) -> float:
    """log of ``sum_n |a_n| r^n`` with relative truncation error <= tol."""
    return _at(series, r, tol, lambda window: window.log_F)


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
    :func:`log_positive_value` up to tolerance.  The sum at each point is
    formed per window block.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")

    def point(window):
        if window.size == 1:  # the single-term window: |f| = |a_0| everywhere
            return window.log_F
        m = window.log_mu
        sums = np.zeros(samples, dtype=complex)
        for lo, t in window.blocks():
            n = np.arange(lo, lo + t.size, dtype=float)
            w = np.exp(t - m)
            if phases is None:
                phi = 0.0
            elif callable(phases):
                phi = np.asarray(phases(n), dtype=float)
            else:
                given = np.asarray(phases, dtype=float)[lo:lo + t.size]
                phi = np.zeros(n.size)
                phi[:given.size] = given
            for k in range(samples):
                theta = 2.0 * math.pi * k / samples
                sums[k] += np.sum(w * np.exp(1j * (n * theta + phi)))
        best = float(np.max(np.abs(sums)))
        if best == 0.0:
            return LOG_ZERO
        return m + math.log(best)

    return _at(series, r, tol, point)
