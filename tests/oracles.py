"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's Gauss-Chebyshev path:
weighted integrals go through QUADPACK's algebraic-weight rule, principal
values through singularity subtraction plus the analytic log term, the
square-root branch through a literal continuity walk along a path around
the cuts or an 80-bit product of principal roots, and the off-interval
Cauchy kernel through an 80-bit Horner sum.  The contour predicates test every segment pair, where the
package sweeps for candidate pairs first.  The one Gauss-Chebyshev sum here,
:func:`weighted_moment`, takes one slit at a time with the package's
pointwise ``weight_factor``; the stacked slit table is checked against it.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from inclusion_forge.branch import weight_factor
from inclusion_forge.quadrature import cheb_nodes


def weighted_integral(f, a: float, b: float) -> float:
    """integral of f(x) / sqrt((x - a)(b - x)) over (a, b), via QUADPACK."""
    val, _err = quad(f, a, b, weight="alg", wvar=(-0.5, -0.5), limit=400)
    return val


def weighted_moment(branch, j: int, f, power: int, N: int) -> float:
    """integral over slit j of f(xi) xi^power / |q(xi)| d xi by N Gauss nodes."""
    a, b = branch.slit(j)
    nodes = cheb_nodes(a, b, N)
    r = weight_factor(branch, nodes, j)
    vals = f(nodes) if callable(f) else np.asarray(f)
    return (np.pi / N) * float(np.sum(vals * nodes**power / r))


def weighted_pv(h, a: float, b: float, xi: float) -> float:
    """Principal value of integral h(t) / (sqrt((t-a)(b-t)) (t - xi)).

    Subtracts h(xi) * w(t)/w(xi) to regularize the pole, integrates the
    remainder with the algebraic-weight rule, and adds back the analytic
    principal value of the bare Cauchy kernel.
    """
    if not a < xi < b:
        raise ValueError("xi must be strictly inside (a, b)")

    def w(t):
        return np.sqrt(np.maximum((t - a) * (b - t), 0.0))

    hxi = h(xi)
    wxi = w(xi)

    def reg(t):
        if abs(t - xi) < 1e-9:
            dt = 1e-6 * (b - a)
            return (reg_at(xi + dt) + reg_at(xi - dt)) / 2.0
        return reg_at(t)

    def reg_at(t):
        return (h(t) - hxi * w(t) / wxi) / (t - xi)

    val, _err = quad(reg, a, b, weight="alg", wvar=(-0.5, -0.5), limit=400)
    return val + hxi / wxi * np.log((b - xi) / (xi - a))


def cauchy_weighted(h, a: float, b: float, zeta: complex) -> complex:
    """integral of h(t) / (sqrt((t-a)(b-t)) (t - zeta)) for zeta off [a, b]."""
    re, _ = quad(
        lambda t: (h(t) / (t - zeta)).real, a, b,
        weight="alg", wvar=(-0.5, -0.5), limit=400,
    )
    im, _ = quad(
        lambda t: (h(t) / (t - zeta)).imag, a, b,
        weight="alg", wvar=(-0.5, -0.5), limit=400,
    )
    return complex(re, im)


def sqrt_weight_moment(k: int) -> float:
    """integral of y^k / sqrt(1 - y^2) over (-1, 1): double-factorial form."""
    if k % 2 == 1:
        return 0.0
    num, den = 1.0, 1.0
    for i in range(1, k, 2):
        num *= i
    for i in range(2, k + 1, 2):
        den *= i
    return np.pi * num / den


def smooth_weight(endpoints, j: int, x):
    """Unchecked r_j(x): the |q| factor with slit j's endpoint weight removed.

    Same formula as the package's weight_factor but without the domain
    guard, since QUADPACK probes a hair outside the closed interval.
    """
    k = np.asarray(endpoints, dtype=float)
    others = np.delete(k, [2 * j, 2 * j + 1])
    return np.sqrt(np.prod(np.abs(np.asarray(x)[..., None] - others), axis=-1))


def branch_by_continuity(endpoints, target: complex, height: float = 2.0,
                         steps: int = 4000) -> complex:
    """Continuity-tracked sqrt(prod (z - k)) from beyond the last endpoint.

    Walks a rectangular detour above the real axis down to the target,
    flipping the local square root whenever that keeps the value
    continuous; the start value on the positive axis past every endpoint
    is real positive, matching the z^n normalization.
    """
    k = np.asarray(endpoints, dtype=float)
    start = complex(k[-1] + 10.0)
    waypoints = [
        start,
        complex(start.real, height),
        complex(target.real, height),
        complex(target),
    ]
    pts: list[complex] = []
    for i in range(len(waypoints) - 1):
        seg = np.linspace(waypoints[i], waypoints[i + 1], steps)
        pts.extend(seg if i == 0 else seg[1:])
    val = complex(np.sqrt(complex(np.prod(pts[0] - k))))
    for z in pts[1:]:
        cand = complex(np.sqrt(complex(np.prod(z - k))))
        if abs(cand - val) > abs(-cand - val):
            cand = -cand
        val = cand
    return val


def branch_principal_product(endpoints, zeta) -> np.ndarray:
    """prod sqrt(zeta - k) of principal roots, in 80-bit (clongdouble) arithmetic.

    The textbook form of the branch, one root per endpoint; signed zero
    imaginary parts of ``zeta`` carry through to the roots.
    """
    z = np.asarray(zeta, dtype=np.clongdouble)
    out = np.ones(z.shape, dtype=np.clongdouble)
    for k in endpoints:
        out *= np.sqrt(z - np.longdouble(k))
    return out


def cauchy_off_80bit(coef, a: float, b: float, zeta) -> np.ndarray:
    """Weighted Cauchy integral of a first-kind series off [a, b], in 80 bits.

    Horner's rule in w = 1/(x + root) at the mapped target x, with
    root = sqrt(x - 1) sqrt(x + 1), and the result -pi/(h root) sum alpha_m w^m
    for the half-length h.  Returned as ``clongdouble``.
    """
    a, b = np.longdouble(a), np.longdouble(b)
    centre, half = (a + b) / 2, (b - a) / 2
    x = (np.asarray(zeta, dtype=np.clongdouble) - centre) / half
    root = np.sqrt(x - 1) * np.sqrt(x + 1)
    w = 1 / (x + root)
    coef = np.asarray(coef).astype(np.clongdouble)
    total = np.full(x.shape, coef[-1], dtype=np.clongdouble)
    for c in coef[-2::-1]:
        total = total * w + c
    pi = np.longdouble("3.14159265358979323846264338327950288")
    return -pi / (half * root) * total


def tail_degree_80bit(coef, w: float, scale: float = 1.0) -> int:
    """Smallest d at which every row of coef (F, L) meets the tail bound at |w|, in 80 bits.

    The bound is sum_{k>=d} |c_k| |w|^k <= scale * 2^-63 |c_k'| |w|^k', with
    k' the first coefficient of the row at least 2^-10 of its largest; each
    tail is summed term by term.  0 when every row is zero.
    """
    mags = np.abs(np.asarray(coef)).astype(np.longdouble)
    L = mags.shape[-1]
    terms = mags * np.longdouble(w) ** np.arange(L)
    tails = np.cumsum(terms[:, ::-1], axis=-1)[:, ::-1]
    tails = np.concatenate([tails, np.zeros((len(terms), 1), dtype=np.longdouble)], axis=-1)
    lead_k = np.argmax(mags >= mags.max(axis=-1, keepdims=True) * 2.0**-10, axis=-1)
    bound = np.longdouble(scale) * np.longdouble(2.0**-63) * terms[np.arange(len(terms)), lead_k]
    return int(np.argmax(np.all(tails <= bound[:, None], axis=0)))


# -- all-pairs contour predicates ----------------------------------------------
#
# The package's predicates test only the segment pairs a sort-and-sweep keeps.
# These build the full segment x segment matrices instead, so every pair is
# tested: O(K^2) time and memory for K segments, fine at test sizes.  Segment
# k runs from vertex k to vertex k + 1; "first" means the lexicographically
# smallest index pair, the row-major first entry of a matrix.


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_cross_matrix(p0, p1, q0, q1) -> np.ndarray:
    """Proper-or-collinear-overlap intersection matrix of two segment sets."""
    ax, ay = p0.real[:, None], p0.imag[:, None]
    bx, by = p1.real[:, None], p1.imag[:, None]
    cx, cy = q0.real[None, :], q0.imag[None, :]
    dx, dy = q1.real[None, :], q1.imag[None, :]
    d1 = _orient(ax, ay, bx, by, cx, cy)
    d2 = _orient(ax, ay, bx, by, dx, dy)
    d3 = _orient(cx, cy, dx, dy, ax, ay)
    d4 = _orient(cx, cy, dx, dy, bx, by)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
        & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_segment(ox, oy, ex, ey, px, py):
        return (
            (np.minimum(ox, ex) <= px) & (px <= np.maximum(ox, ex))
            & (np.minimum(oy, ey) <= py) & (py <= np.maximum(oy, ey))
        )

    collinear = (
        ((d1 == 0) & on_segment(ax, ay, bx, by, cx, cy))
        | ((d2 == 0) & on_segment(ax, ay, bx, by, dx, dy))
        | ((d3 == 0) & on_segment(cx, cy, dx, dy, ax, ay))
        | ((d4 == 0) & on_segment(cx, cy, dx, dy, bx, by))
    )
    return proper | collinear


def _point_segment_matrix(pts, s0, s1) -> np.ndarray:
    """Distance from every point to every segment, shape (points, segments)."""
    d = s1 - s0
    den = np.maximum(np.abs(d) ** 2, 1e-300)
    t = np.clip(((pts[:, None] - s0[None, :]) * np.conj(d[None, :])).real
                / den[None, :], 0.0, 1.0)
    proj = s0[None, :] + t * d[None, :]
    return np.abs(pts[:, None] - proj)


def _first(mask: np.ndarray):
    hits = np.argwhere(mask)
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def self_crossing_all_pairs(points):
    """First segment pair (i < j) where a closed polyline crosses itself, or None.

    Adjacent segments, including the first and the last, are not tested.
    """
    z = np.asarray(points, dtype=complex)
    p0, p1 = z[:-1], z[1:]
    idx = np.arange(len(p0))
    gap = np.abs(idx[:, None] - idx[None, :])
    adjacent = (gap <= 1) | (gap == len(p0) - 1)
    return _first(segments_cross_matrix(p0, p1, p0, p1) & ~adjacent)


def _winding_contains(z, point) -> bool:
    w = z - point
    return abs(np.sum(np.angle(w[1:] / w[:-1]))) > np.pi


def pair_contact_all_pairs(points1, points2, touch_rel: float = 1e-9):
    """Why two closed polylines are not disjoint, or None when they are.

    ``("cross", i, j)`` for the first crossing segment pair, else
    ``("touch", i, j)`` for the first pair closer than the pad (touch_rel
    times the larger bounding-box diagonal), else ``("nested", -1, -1)``
    when either contains the other's first vertex.
    """
    za = np.asarray(points1, dtype=complex)
    zb = np.asarray(points2, dtype=complex)

    def diameter(z):
        return np.hypot(np.ptp(z.real), np.ptp(z.imag))

    pad = touch_rel * max(diameter(za), diameter(zb))
    if (za.real.max() + pad < zb.real.min() or zb.real.max() + pad < za.real.min()
            or za.imag.max() + pad < zb.imag.min()
            or zb.imag.max() + pad < za.imag.min()):
        return None
    a0, a1, b0, b1 = za[:-1], za[1:], zb[:-1], zb[1:]
    crossing = _first(segments_cross_matrix(a0, a1, b0, b1))
    if crossing is not None:
        return ("cross", *crossing)
    dist = np.minimum.reduce([
        _point_segment_matrix(a0, b0, b1), _point_segment_matrix(a1, b0, b1),
        _point_segment_matrix(b0, a0, a1).T, _point_segment_matrix(b1, a0, a1).T,
    ])
    touching = _first(dist < pad)
    if touching is not None:
        return ("touch", *touching)
    if _winding_contains(za, zb[0]) or _winding_contains(zb, za[0]):
        return ("nested", -1, -1)
    return None


def hausdorff_all_pairs(points1, points2) -> float:
    """Symmetric vertex-to-polyline Hausdorff distance from full distance matrices."""
    za = np.asarray(points1, dtype=complex)
    zb = np.asarray(points2, dtype=complex)
    return float(max(
        _point_segment_matrix(za, zb[:-1], zb[1:]).min(axis=1).max(),
        _point_segment_matrix(zb, za[:-1], za[1:]).min(axis=1).max(),
    ))
