"""Gauss-Chebyshev quadrature and Cauchy integrals with sqrt endpoint weight.

Every integral in this package has the form

    integral_a^b  h(eta) / sqrt((eta - a)(b - eta)) * K(eta) d eta

with h smooth and K either 1 (plain quadrature), 1/(eta - xi) with xi inside
(a, b) (principal value), or 1/(eta - zeta) with zeta off [a, b] (Cauchy
integral).  The plain case is the classical N-point Gauss-Chebyshev rule
(:meth:`~inclusion_forge.branch.SlitTable.integrate`, at the nodes of
:func:`cheb_nodes`); the other two are evaluated through the Chebyshev
expansion of h: the polynomials of the first kind map to second-kind
polynomials inside the interval and to a geometric kernel outside, so a
single coefficient vector serves boundary and off-interval targets alike,
arbitrarily close to the interval.

The geometric kernel needs one square root per (interval, target):
:func:`slit_roots` returns it with the ratio w that the series is summed
in, and the branch q of :mod:`inclusion_forge.branch` is the product of the
same roots; beside one interval the mapper forms that interval's root alone
(:func:`pair_roots`, one interval per target) and takes the product of the
others from a series.  The off-interval kernel computes in the arithmetic of
its targets: real targets on the axis are summed in real arithmetic, so
:func:`cauchy_off_stack` of real coefficients at real targets returns a
real (float64) array, and complex targets return a complex array.

Each series is chopped before any sum runs: :func:`standard_chop` finds
the rounding plateau of every row (Aurentz & Trefethen's rule at tolerance
2^-52), and the caller zeroes the row past it and trims the table to its
longest kept row.  The terms dropped there lie at the rounding level of the
series itself, and the tail rule below then never needs a term past a zero
tail, so every sum stops at the kept length.

The off-interval series converges like |w|^k, and |w| falls like
h / 2|zeta - c| away from the interval, so a far target needs few terms.
With k' the first coefficient of a row at least 2^-10 of its largest, the
terms k >= d of the row may be dropped at a target where

    sum_{k >= d} |c_k| |w|^k  <=  2^-63 |c_k'| |w|^k'.

|c_k'| |w|^k' is one term of the full sum, so 2^-63 of it lies below the
sum's own rounding scale, also where c_0 = 0.  For d > k' the tail over the
lead term grows with |w|, so a bound met at some |w| holds at every smaller
one.  One function evaluates the bound, term by term at a given |w|:
:func:`block_degrees` gives the degree each block of targets on the slits
needs at its largest |w|, and :func:`cauchy_off_blocks` sums every block to
its own degree; :func:`degree_table` picks one split degree D for targets
off the slits and bisects, per row, for the largest |w| at which D terms
meet the bound, and the kernel sums the terms k >= D only beyond that |w|.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "cheb_nodes",
    "coef_from_samples",
    "standard_chop",
    "singular_on_stack",
    "SlitRoots",
    "slit_roots",
    "pair_roots",
    "DegreeTable",
    "degree_table",
    "block_degrees",
    "row_lengths",
    "cauchy_off_stack",
    "cauchy_off_blocks",
]


def cheb_nodes(a: float, b: float, N: int) -> np.ndarray:
    """First-kind Chebyshev nodes mapped to (a, b), ordered right to left."""
    j = np.arange(1, N + 1)
    x = np.cos((2 * j - 1) * np.pi / (2 * N))
    return 0.5 * (b + a) + 0.5 * (b - a) * x


def like_input(value, arg):
    """``value`` as a Python scalar when ``arg`` is a scalar, else as an array.

    Every public evaluator of the package returns through this helper, so a
    scalar target gives a scalar result and an array of targets an array of
    the same shape.
    """
    if np.ndim(arg) == 0:
        return np.asarray(value).item()
    return value


def truncation_indicator(coef) -> np.ndarray:
    """|alpha_M| relative to the largest coefficient of each row (0 if none)."""
    mags = np.abs(coef)
    top = mags.max(axis=-1)
    return np.divide(mags[..., -1], top, out=np.zeros_like(top), where=top > 0.0)


_CHOP_TOL = 2.0**-52               # chopping tolerance: the rounding unit of float64
_CHOP_MIN = 17                     # shorter rows are kept whole
_CHOP_FLOOR = _CHOP_TOL ** (7.0 / 6.0)
_LOG_TOL = np.log(_CHOP_TOL)
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _chop_envelope_index(L: int) -> np.ndarray:
    """Envelope indices j2 - 1 of the plateau test at j = 2, 3, ... of rows of length L."""
    j = np.arange(2, L + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)  # round half up
    i2 = j2[j2 <= L] - 1
    i2.setflags(write=False)
    return i2


def _chop_ramps(last: np.ndarray, L: int) -> np.ndarray:
    """Row r: np.linspace(0, -log10(tol) / 3, last[r] + 1), bit for bit, then inf up to length L.

    Added to a row, it leaves only its first last[r] + 1 entries finite.
    """
    m, k = last[:, None], np.arange(L)
    top = (-1.0 / 3.0) * np.log10(_CHOP_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k < m, k * (top / m), np.where(k == m, top, np.inf))


def standard_chop(coef) -> np.ndarray:
    """Kept length of each row of coefficients (..., R, L): shape (..., R).

    The chopping rule of Aurentz & Trefethen (*Chopping a Chebyshev series*,
    ACM TOMS 43, 2017) at tolerance 2^-52, for all rows at once.  A row's
    envelope is the running maximum of |c_k| from its end, over its first
    value.  A plateau starts at the first j (1-based, as in the paper) whose
    envelope e_j is 0 or has e_j2 / e_j > 3 (1 - log e_j / log tol) at
    j2 = round(1.25 j + 5) <= L.  The row is then cut where log10 of its
    envelope plus a ramp from 0 to -log10(tol) / 3 over its first j2 entries
    is least (j2 lowered to one past the last envelope value >= tol^(7/6),
    which is set to tol^(7/6)), keeping at least one term.  A row with no
    plateau keeps all L terms, an all-zero row none, and rows shorter than
    17 terms are kept whole.  (The paper's cut before a zero envelope value
    is never reached: a zero e_j is a plateau at j - 1 already.)
    """
    mags = np.abs(np.asarray(coef))
    L = mags.shape[-1]
    if L < _CHOP_MIN:
        return np.full(mags.shape[:-1], L)
    env = np.maximum.accumulate(mags.reshape(-1, L)[:, ::-1], axis=-1)[:, ::-1]
    live = env[:, 0] > 0.0
    env = env / np.where(live, env[:, 0], 1.0)[:, None]
    i2 = _chop_envelope_index(L)
    # e_j for j = 2, 3, ..., raised to the least normal float: where e_j is 0
    # or subnormal the threshold is < 0 <= e_j2 / e_j either way, so the test
    # passes as in the paper, with no division by zero
    e1 = np.maximum(env[:, 1 : len(i2) + 1], _TINY)
    plateau = env[:, i2] / e1 > 3.0 * (1.0 - np.log(e1) / _LOG_TOL)
    # j2 - 1, lowered to the count of envelope values >= tol^(7/6)
    last = np.minimum(i2[plateau.argmax(axis=-1)], (env >= _CHOP_FLOOR).sum(axis=-1))
    cut = (np.log10(np.maximum(env, _CHOP_FLOOR)) + _chop_ramps(last, L)).argmin(axis=-1)
    # an all-zero row has a plateau at j = 2 and its least entry first: it keeps 0
    return np.where(plateau.any(axis=-1), np.maximum(cut, live), L).reshape(mags.shape[:-1])


def _dct2(x: np.ndarray) -> np.ndarray:
    """Type-II DCT over the last axis, 2 sum_n x_n cos(pi k (2n+1) / 2N).

    One FFT of the even-indexed samples followed by the odd-indexed ones in
    reverse, then a quarter-sample phase shift (Makhoul, IEEE Trans. ASSP
    28, 1980).
    """
    N = x.shape[-1]
    v = np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1)
    shift = np.exp(-0.5j * np.pi * np.arange(N) / N)
    return 2.0 * (shift * np.fft.fft(v, axis=-1)).real


def coef_from_samples(samples, M: int) -> np.ndarray:
    """Coefficients through degree M of rows sampled at first-kind nodes.

    ``samples`` holds N values per row along its last axis, ordered like
    :func:`cheb_nodes` output (right to left); the coefficients are the
    N-point Gauss discretization of the orthogonality integrals, computed as
    one type-II DCT over that axis.
    """
    samples = np.asarray(samples)
    N = samples.shape[-1]
    if M > N:
        raise ValueError(f"M = {M} exceeds sample count N = {N}")
    if np.iscomplexobj(samples):
        raw = _dct2(samples.real) + 1j * _dct2(samples.imag)
    else:
        raw = _dct2(samples)
    coef = raw[..., : M + 1] / N
    coef[..., 0] *= 0.5
    return coef


def singular_on_stack(coef, centre, half, xi) -> np.ndarray:
    """Principal values of stacked series at real targets inside their intervals.

    ``coef`` holds R rows of first-kind coefficients in its last two axes,
    shape (..., R, L), for the intervals ``centre +- half`` (each of shape
    (R,)).  ``xi`` is (T,), targets shared by every row, or (R, T), row r's
    own targets; the result has shape (..., R, T).  T_0 contributes nothing
    and T_m maps to pi U_{m-1}, so each value is
    (pi / half) * sum_{m>=1} alpha_m U_{m-1}(x) at the mapped target, summed
    by the ascending second-kind recurrence, in place, over all rows at
    once.  Leading entries and rows whose terms m >= 1 are all zero are left
    out of the sum: their values are 0.  Endpoint targets are admitted
    (U_{m-1}(+-1) is finite).
    """
    coef = np.asarray(coef)
    half = np.asarray(half)[:, None]
    x = (np.asarray(xi, dtype=float) - np.asarray(centre)[:, None]) / half
    flat = coef.reshape((-1,) + coef.shape[-2:])
    total = np.zeros(flat.shape[:-1] + x.shape[-1:], dtype=np.result_type(coef, x))
    live = flat[..., 1:].any(axis=-1)
    lead, row = live.any(axis=1), live.any(axis=0)
    if live.any():
        c, two_x = flat[lead][:, row], 2.0 * x[row]
        acc = np.zeros(c.shape[:-1] + two_x.shape[-1:], dtype=total.dtype)
        term = np.empty_like(acc)
        u_prev, u, u_next = np.zeros_like(two_x), np.ones_like(two_x), np.empty_like(two_x)
        for m in range(1, coef.shape[-1]):
            np.multiply(c[..., m, None], u, out=term)
            acc += term
            np.multiply(two_x, u, out=u_next)
            u_next -= u_prev
            u_prev, u, u_next = u, u_next, u_prev
        total[np.ix_(lead, row)] = acc
    total *= np.pi / half
    return total.reshape(coef.shape[:-1] + x.shape[-1:])


class SlitRoots(NamedTuple):
    """Branch data of every (row, target) pair, each of shape (R,) + targets.

    ``rho`` is sqrt((zeta - a)(zeta - b)) for the interval [a, b] of the row,
    cut along the interval and ~ zeta at infinity; ``w`` is
    h / ((zeta - c) + rho) for its centre c and half-length h, the root with
    |w| < 1 of w^2 - 2xw + 1 = 0 at the mapped target x = (zeta - c) / h.
    """

    rho: np.ndarray
    w: np.ndarray


def slit_roots(lo, hi, zeta) -> SlitRoots:
    """One square root per (row, target): ``rho`` and ``w`` of :class:`SlitRoots`.

    ``lo`` and ``hi`` (each of shape (R,)) are the true endpoints of the
    intervals, so rho vanishes exactly there; ``zeta`` (any shape) lies off
    every interval.  The dtype of ``zeta`` picks the arithmetic.  Real
    targets give sign(zeta - c) sqrt(|(zeta - a)(zeta - b)|).  Complex
    targets take the principal root of the product and negate it where
    Re(conj(zeta - c) rho) < 0: both terms of that real part are >= 0 on the
    branch wanted, and it vanishes only on the interval, so the test needs
    no tolerance.  w is a quotient whose denominator never cancels, so it
    stays accurate far from the interval, where x - sqrt(x^2 - 1) would not.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    t = np.asarray(zeta, dtype=complex if np.iscomplexobj(zeta) else float)
    shape = lo.shape + (1,) * t.ndim
    return pair_roots(lo.reshape(shape), hi.reshape(shape), t)


def pair_roots(lo: np.ndarray, hi: np.ndarray, t: np.ndarray) -> SlitRoots:
    """:class:`SlitRoots` of intervals [lo, hi] that broadcast against targets t.

    Arrays of one shape pair interval i with target i: one root per target.
    """
    dz = t - 0.5 * (hi + lo)
    rho = t - lo
    rho *= t - hi
    if np.iscomplexobj(rho):
        np.sqrt(rho, out=rho)
        sign = dz.real * rho.real
        sign += dz.imag * rho.imag
        rho *= np.copysign(1.0, sign, out=sign)
    else:
        np.abs(rho, out=rho)
        np.sqrt(rho, out=rho)
        np.copysign(rho, dz, out=rho)
    dz += rho
    w = np.divide(0.5 * (hi - lo), dz, out=dz)
    return SlitRoots(rho, w)


_TAIL = 2.0**-63     # tail bound, relative to the lead term |c_k'| |w|^k'
_LEAD = 2.0**-10     # the lead term is the first coefficient this share of the largest
_BEYOND = 0.15       # largest share of slit-centre pairs left beyond the split degree


class DegreeTable(NamedTuple):
    """Where the off-interval series of R rows may stop.

    The kernel splits its Horner loop at degree ``D``.  ``thr[j]`` (shape
    (R,)) is the largest |w| below 1 at which every family row of interval j
    needs at most D terms by the rule of :func:`block_degrees`, rounded down
    by at most a relative 2^-30, and 0 where no |w| > 0 qualifies.
    ``beyond`` is the share of (interval, other interval's centre) pairs
    that need more than D terms.
    """

    thr: np.ndarray
    D: int
    beyond: float


def _tail_rule(coef):
    """The tail bound of the module docstring for rows (F, R, L), as a function of |w|.

    The function returned maps |w| of shape (K, R), interval r's |w| over
    the targets of group k, to the smallest d at which row (f, r) meets the
    bound there, shape (F, K, R).  The tail is summed term by term and the
    bound lowered by 2^-40, which covers the rounding of the powers and the
    sums.  The degree is 0 for rows that are all zero and L where even the
    last term exceeds the bound.
    """
    mags = np.abs(np.asarray(coef))
    top = mags.max(axis=-1, keepdims=True)
    mags = np.divide(mags, top, out=np.zeros_like(mags), where=top > 0.0)
    L = mags.shape[-1]
    lead_k = np.argmax(mags >= _LEAD, axis=-1)[:, None, :, None]
    high_first = mags[:, None, :, ::-1]

    def degrees(w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        powers = np.empty(w.shape + (L,))
        powers[..., 0] = 1.0
        powers[..., 1:] = w[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        # terms of shape (F, K, R, L), highest degree first, so the tails are one cumsum
        terms = high_first * powers[..., ::-1]
        index = np.broadcast_to(L - 1 - lead_k, terms.shape[:-1] + (1,))
        bound = np.take_along_axis(terms, index, axis=-1) * (_TAIL * (1.0 - 2.0**-40))
        fails = np.cumsum(terms, axis=-1, out=terms) > bound
        return fails.sum(axis=-1)

    return degrees


def _thresholds(coef, D: int) -> np.ndarray:
    """``DegreeTable.thr`` at split degree D of rows (F, R, L).

    Bisection on the bit patterns of |w| in [0, 1), which order like the
    values: 41 halvings of the 2^62 patterns leave 2^21, a relative 2^-30,
    between a |w| that passes and one that fails.  A row that passes with D
    terms at some |w| > 0 has D > k', so it passes at every smaller |w|.
    """
    degrees = _tail_rule(coef)
    low = np.zeros(coef.shape[-2], dtype=np.int64)  # passes
    high = np.full_like(low, np.float64(1.0).view(np.int64))  # fails
    for _ in range(41):
        mid = (low + high) >> 1
        passes = (degrees(mid.view(float)[None]) <= D).all(axis=(0, 1))
        np.copyto(low, mid, where=passes)
        np.copyto(high, mid, where=~passes)
    return low.view(float)


def degree_table(coef, lo, hi) -> DegreeTable:
    """The degree table of rows (F, R, L) on R >= 2 disjoint intervals [lo, hi].

    D depends on the intervals and the coefficients only, never on the
    targets: it is the smallest d >= 1 at which at most 15% of the pairs
    (interval j, centre of another interval) need more than d terms at their
    |w_j|, by the rule of :func:`block_degrees`.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    w = np.abs(slit_roots(lo, hi, 0.5 * (lo + hi)).w)
    pairs = _tail_rule(coef)(w.T).max(axis=0)[~np.eye(len(w), dtype=bool)]
    beyond = (pairs[:, None] > np.arange(1, np.shape(coef)[-1] + 1)).mean(axis=0)
    D = 1 + int(np.argmax(beyond <= _BEYOND))
    return DegreeTable(_thresholds(coef, D), D, float(beyond[D - 1]))


def block_degrees(coef, w) -> np.ndarray:
    """Terms each block must sum, shape (F, K, R), for rows of shape (F, R, L).

    ``w`` (shape (K, R)) is the largest |w| of interval r over the targets
    of group k.  The degree of block (k, r) in family f is the smallest d at
    which row (f, r) meets the tail bound of the module docstring at that
    |w|, so the bound holds at every target of the group.
    """
    return _tail_rule(coef)(w)


def row_lengths(coef) -> np.ndarray:
    """One past the last nonzero coefficient of each row of coef (..., L); 0 for an all-zero row."""
    nonzero = np.asarray(coef) != 0
    return np.where(nonzero.any(axis=-1), nonzero.shape[-1] - np.argmax(nonzero[..., ::-1], axis=-1), 0)


def _high_terms(coef, w, row, rows: int, D: int, dtype) -> np.ndarray:
    """sum_{k>=D} c_k w^(k-D+1) by Horner's rule at pairs (row[i], w[i]).

    ``row`` is ascending, as :func:`numpy.nonzero` gives it, so repeating
    each row's coefficient by its pair count lines it up with the pairs.
    """
    counts = np.bincount(row, minlength=rows)
    high = np.repeat(coef[..., -1], counts, axis=-1).astype(dtype)
    for k in range(coef.shape[-1] - 2, D - 1, -1):
        high *= w
        high += np.repeat(coef[..., k], counts, axis=-1)
    high *= w
    return high


def cauchy_off_stack(coef, roots: SlitRoots, table: DegreeTable | None = None) -> np.ndarray:
    """Weighted Cauchy integrals of stacked series at targets off their intervals.

    ``coef`` holds R rows of first-kind coefficients in its last two axes,
    shape (..., R, L); ``roots`` is :func:`slit_roots` of the R intervals at
    the targets, with arrays of shape (R,) + targets.  Every row is
    evaluated at every target, so the result has shape (..., R) + targets.
    T_m integrates to -pi w^m / rho (rho = h sqrt(x^2 - 1) in the mapped
    variable); the formula is the exact analytic continuation of the
    principal-value expansion, so it stays accurate arbitrarily close to the
    interval (only the truncation of the series matters there).  The series
    in w is summed by Horner's rule in place over all rows and targets,
    from the longest row's last nonzero term, and multiplied by one
    reciprocal -pi/rho per (row, target).

    With a :class:`DegreeTable` of the rows, every pair sums the terms
    k < D, and only the pairs with |w| > thr[j] sum the terms k >= D:
    one compact Horner pass over those pairs, grouped by row, seeds the
    loop below D, so they go through the same operations as without a
    table.  Without a table every pair sums all L terms.

    The dtype of the roots picks the arithmetic: for real targets (on the
    axis, outside every interval) :func:`slit_roots` keeps rho and w real,
    and the Horner loop runs in real arithmetic; with real coefficients the
    result is then real (float64).  Complex targets, even with a zero
    imaginary part, are summed in complex arithmetic and give a complex
    result.
    """
    coef = np.asarray(coef)
    rho, w = roots
    rows, L = len(rho), coef.shape[-1]
    w = w.reshape(rows, -1)
    D = L if table is None else table.D
    longest = int(row_lengths(coef.reshape(-1, L)).max(initial=0))
    top = min(longest, D)
    total = np.empty(coef.shape[:-1] + w.shape[-1:], dtype=np.result_type(coef, w))
    total[...] = coef[..., top - 1, None] if top else 0.0
    if top < longest:
        row, col = np.nonzero(np.abs(w) > table.thr[:, None])
        if len(row):
            total[..., row, col] += _high_terms(coef[..., :longest], w[row, col], row, rows, D, total.dtype)
    for m in range(top - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    total *= np.divide(-np.pi, rho.reshape(rows, -1))
    return total.reshape(coef.shape[:-1] + rho.shape[1:])


def cauchy_off_blocks(coef, lo, hi, x, degree) -> np.ndarray:
    """Weighted Cauchy integrals of blocks of real targets, each to its own degree.

    Block b pairs the first-kind coefficients ``coef[..., b, :]`` of the
    interval [lo[b], hi[b]] with its real targets ``x[b]``, all off that
    interval, and sums the first ``degree[b]`` terms of the series.  Shapes:
    ``coef`` (..., B, L'), ``lo`` and ``hi`` (B, 1), ``x`` (B, T) and
    ``degree`` (B,), at most L'.  The degrees must not increase from block
    to block: one Horner loop in real arithmetic runs down from the largest
    degree over the prefix of blocks that still need the current term; a block enters the loop at its own
    degree with the same operations as the plain loop of
    :func:`cauchy_off_stack`, so a block of full degree gives that kernel's
    value bit for bit.  The result has shape (..., B, T).
    """
    coef = np.asarray(coef)
    degree = np.asarray(degree)
    rho, w = pair_roots(lo, hi, np.asarray(x, dtype=float))
    top = int(degree[0]) if len(degree) else 0
    total = np.zeros(coef.shape[:-2] + w.shape, dtype=np.result_type(coef, w))
    # blocks [0, active[m]) have degree > m, so they sum term m
    active = np.searchsorted(-degree, -np.arange(top), side="left")
    for m in range(top - 1, -1, -1):
        part = total[..., : active[m], :]
        part *= w[: active[m]]
        part += coef[..., : active[m], m, None]
    total *= np.divide(-np.pi, rho)
    return total
