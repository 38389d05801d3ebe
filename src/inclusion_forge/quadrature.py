"""Gauss-Chebyshev quadrature and Cauchy integrals with sqrt endpoint weight.

Every integral in this package has the form

    integral_a^b  h(eta) / sqrt((eta - a)(b - eta)) * K(eta) d eta

with h smooth and K either 1 (plain quadrature), 1/(eta - xi) with xi inside
(a, b) (principal value), or 1/(eta - zeta) with zeta off [a, b] (Cauchy
integral).  The plain case is the classical N-point Gauss-Chebyshev rule;
the other two are evaluated through the Chebyshev expansion of h: the
polynomials of the first kind map to second-kind polynomials inside the
interval and to a geometric kernel outside, so a single coefficient vector
serves boundary and off-interval targets alike, arbitrarily close to the
interval.

The geometric kernel needs one square root per (interval, target):
:func:`slit_roots` returns it with the ratio w that the series is summed
in, and the branch q of :mod:`inclusion_forge.branch` is the product of the
same roots.  The off-interval kernel computes in the arithmetic of its
targets: real targets on the axis are summed in real arithmetic, so
``cauchy_off`` of a real series at a real target returns a ``float`` (a
real array for real array targets), and complex targets return ``complex``
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChebyshevSeries",
    "cheb_nodes",
    "gauss_cheb",
    "cheb_coeffs",
    "coef_from_samples",
    "series_from_samples",
    "singular_on_stack",
    "SlitRoots",
    "slit_roots",
    "cauchy_off_stack",
    "singular_on",
    "cauchy_off",
]


def cheb_nodes(a: float, b: float, N: int) -> np.ndarray:
    """First-kind Chebyshev nodes mapped to (a, b), ordered right to left."""
    j = np.arange(1, N + 1)
    x = np.cos((2 * j - 1) * np.pi / (2 * N))
    return 0.5 * (b + a) + 0.5 * (b - a) * x


def gauss_cheb(h, a: float, b: float, N: int):
    """N-point Gauss-Chebyshev value of integral h(eta)/sqrt((eta-a)(b-eta)).

    ``h`` is a callable vectorized over node arrays.  Exact for h a
    polynomial of degree <= 2N - 1 in the mapped variable.
    """
    nodes = cheb_nodes(a, b, N)
    return (np.pi / N) * np.sum(h(nodes), axis=-1)


@dataclass(frozen=True)
class ChebyshevSeries:
    """First-kind Chebyshev coefficients of a smooth density on [a, b]."""

    a: float
    b: float
    coef: np.ndarray

    def __init__(self, a: float, b: float, coef) -> None:
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        c = np.array(coef)  # owned copy; frozen below
        if not np.iscomplexobj(c):
            c = c.astype(float)
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)

    @property
    def delta_plus(self) -> float:
        return 0.5 * (self.b + self.a)

    @property
    def delta_minus(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    @property
    def truncation_indicator(self) -> float:
        """|alpha_M| relative to the largest coefficient; ~0 when resolved."""
        return float(truncation_indicator(self.coef))


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


def series_from_samples(samples, a: float, b: float, M: int) -> ChebyshevSeries:
    """Series through degree M from values at the N first-kind nodes of (a, b)."""
    return ChebyshevSeries(a, b, coef_from_samples(samples, M))


def cheb_coeffs(h, a: float, b: float, N: int, M: int) -> ChebyshevSeries:
    """Expand the callable h over [a, b] in Chebyshev polynomials up to T_M."""
    return series_from_samples(h(cheb_nodes(a, b, N)), a, b, M)


def singular_on_stack(coef, centre, half, xi) -> np.ndarray:
    """Principal values of stacked series at real targets inside their intervals.

    ``coef`` holds R rows of first-kind coefficients in its last two axes,
    shape (..., R, L), for the intervals ``centre +- half`` (each of shape
    (R,)).  ``xi`` is (T,), targets shared by every row, or (R, T), row r's
    own targets; the result has shape (..., R, T).  T_0 contributes nothing
    and T_m maps to pi U_{m-1}, so each value is
    (pi / half) * sum_{m>=1} alpha_m U_{m-1}(x) at the mapped target, summed
    by the ascending second-kind recurrence over all rows at once.  Endpoint
    targets are admitted (U_{m-1}(+-1) is finite).
    """
    coef = np.asarray(coef)
    half = np.asarray(half)[:, None]
    x = (np.asarray(xi, dtype=float) - np.asarray(centre)[:, None]) / half
    total = np.zeros(coef.shape[:-1] + x.shape[-1:], dtype=np.result_type(coef, x))
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    for m in range(1, coef.shape[-1]):
        total += coef[..., m, None] * u
        u_prev, u = u, 2.0 * x * u - u_prev
    total *= np.pi / half
    return total


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
    lo, hi = lo.reshape(shape), hi.reshape(shape)
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


def cauchy_off_stack(coef, roots: SlitRoots) -> np.ndarray:
    """Weighted Cauchy integrals of stacked series at targets off their intervals.

    ``coef`` holds R rows of first-kind coefficients in its last two axes,
    shape (..., R, L); ``roots`` is :func:`slit_roots` of the R intervals at
    the targets, with arrays of shape (R,) + targets.  Every row is
    evaluated at every target, so the result has shape (..., R) + targets.
    T_m integrates to -pi w^m / rho (rho = h sqrt(x^2 - 1) in the mapped
    variable); the formula is the exact analytic continuation of the
    principal-value expansion, so it stays accurate arbitrarily close to the
    interval (only the truncation of the series matters there).  The series
    in w is summed by Horner's rule in place over all rows and targets, and
    multiplied by one reciprocal -pi/rho per (row, target).

    The dtype of the roots picks the arithmetic: for real targets (on the
    axis, outside every interval) :func:`slit_roots` keeps rho and w real,
    and the Horner loop runs in real arithmetic; with real coefficients the
    result is then real (float64).  Complex targets, even with a zero
    imaginary part, are summed in complex arithmetic and give a complex
    result.
    """
    coef = np.asarray(coef)
    rho, w = roots
    rows = len(rho)
    w = w.reshape(rows, -1)
    total = np.empty(coef.shape[:-1] + w.shape[-1:], dtype=np.result_type(coef, w))
    total[...] = coef[..., -1, None]
    for m in range(coef.shape[-1] - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    total *= np.divide(-np.pi, rho.reshape(rows, -1))
    return total.reshape(coef.shape[:-1] + rho.shape[1:])


def singular_on(series: ChebyshevSeries, xi):
    """Principal value of the weighted Cauchy integral at xi in (a, b)."""
    out = singular_on_stack(
        series.coef[None], [series.delta_plus], [series.delta_minus], np.reshape(xi, -1)
    )
    return like_input(out[0].reshape(np.shape(xi)), xi)


def cauchy_off(series: ChebyshevSeries, zeta):
    """Weighted Cauchy integral at a target zeta off the closed interval.

    A real target (a Python or numpy float, or a real array) with a real
    series gives a real result: ``cauchy_off(series, 2.0)`` is a ``float``.
    A complex target gives a ``complex`` (see :func:`cauchy_off_stack`).
    """
    out = cauchy_off_stack(series.coef[None], slit_roots([series.a], [series.b], zeta))
    return like_input(out[0], zeta)
