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

The off-interval kernel computes in the arithmetic of its targets: real
targets on the axis are summed in real arithmetic, so ``cauchy_off`` of a
real series at a real target returns a ``float`` (a real array for real
array targets), and complex targets return ``complex`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebyshevSeries",
    "cheb_nodes",
    "gauss_cheb",
    "cheb_coeffs",
    "coef_from_samples",
    "series_from_samples",
    "singular_on_stack",
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


def _unit_targets(centre, half, t, dtype):
    """Targets mapped onto [-1, 1] of every row: shape (R, T).

    ``t`` is (T,), shared by every row, or (R, T), row r's own targets.
    """
    t = np.asarray(t, dtype=dtype)
    return (t - np.asarray(centre)[:, None]) / np.asarray(half)[:, None]


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
    x = _unit_targets(centre, half, xi, float)
    total = np.zeros(coef.shape[:-1] + x.shape[-1:], dtype=np.result_type(coef, x))
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    for m in range(1, coef.shape[-1]):
        total += coef[..., m, None] * u
        u_prev, u = u, 2.0 * x * u - u_prev
    total *= np.pi / np.asarray(half)[:, None]
    return total


def cauchy_off_stack(coef, centre, half, zeta) -> np.ndarray:
    """Weighted Cauchy integrals of stacked series at targets off their intervals.

    ``coef``, ``centre`` and ``half`` as in :func:`singular_on_stack`; every
    row is evaluated at every target of ``zeta`` (any shape), so the result
    has shape (..., R) + zeta.shape.  In the mapped variable x, T_m
    integrates to -pi w^m / sqrt(x^2 - 1) where w is the root of
    w^2 - 2xw + 1 = 0 with |w| < 1; the formula is the exact analytic
    continuation of the principal-value expansion, so it stays accurate
    arbitrarily close to the interval (only the truncation of the series
    matters there).  The series in w is summed by Horner's rule in place
    over all rows and targets, so the only temporaries are of the result's
    size.

    The dtype of ``zeta`` picks the arithmetic.  Real targets (on the axis,
    outside every interval) keep x, the root and w real, and the Horner loop
    runs in real arithmetic; with real coefficients the result is then real
    (float64).  Complex targets, even with a zero imaginary part, are summed
    in complex arithmetic and give a complex result.
    """
    coef = np.asarray(coef)
    flat = np.reshape(zeta, -1)
    real = not np.iscomplexobj(flat)
    x = _unit_targets(centre, half, flat, float if real else complex)
    # the branch of sqrt(x^2 - 1) cut along [-1, 1] with sqrt ~ x at infinity;
    # on the axis outside the cut it is sign(x) sqrt(|x - 1|) sqrt(|x + 1|)
    if real:
        root = np.sqrt(np.abs(x - 1.0))
        root *= np.sqrt(np.abs(x + 1.0))
        np.copysign(root, x, out=root)
    else:
        root = np.sqrt(x - 1.0)
        root *= np.sqrt(x + 1.0)
    w = np.subtract(x, root, out=x)
    total = np.empty(coef.shape[:-1] + w.shape[-1:], dtype=np.result_type(coef, w))
    total[...] = coef[..., -1, None]
    for m in range(coef.shape[-1] - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    total *= -np.pi / np.asarray(half)[:, None]
    total /= root
    return total.reshape(coef.shape[:-1] + np.shape(zeta))


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
    out = cauchy_off_stack(
        series.coef[None], [series.delta_plus], [series.delta_minus], zeta
    )
    return like_input(out[0], zeta)
