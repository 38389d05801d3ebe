"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's Gauss-Chebyshev path:
weighted integrals go through QUADPACK's algebraic-weight rule, principal
values through singularity subtraction plus the analytic log term, the
square-root branch through a literal continuity walk along a path around
the cuts or an 80-bit product of principal roots, and the off-interval
Cauchy kernel through an 80-bit Horner sum.  The contour predicates test
every segment pair, where the package sweeps for candidate pairs first.
:func:`weighted_moment` takes one Gauss-Chebyshev sum over one slit at a
time with r_j from :func:`smooth_weight`; the stacked slit table is
checked against it.  The contour CSV is written one row at a time, each
field by its own ``format()`` call, and the SVG one point at a time, where
the package formats a whole contour at once.  The solvability constants come
from one linear solve per problem and free value, and the antisymmetric free
values from two probe solves each, where the package solves each system once
for both problems.  :func:`forward_interior_stress` solves the antiplane
transmission problem on the traced contours, reading nothing of the map that
traced them.  :func:`far_field_sums_80bit` solves the constants and
sums the off-slit Cauchy integrals directly on its own node table, all in
80-bit arithmetic, where the package sums balanced Chebyshev rows in
float64.  :func:`abs_q_broadcast` forms |q| from one array of differences,
where the package multiplies one endpoint at a time, and the all-family
sums sum every density family of the map, where the package skips the
families that keep no term.  :func:`bank_value` states the published bank
sign rule of q, which the package applies inside its boundary pass.  The
printed two-slit forms of the origin-symmetric case (:func:`n2_symmetric_a`,
:func:`n2_symmetric_rho`) are kept here as cross-check targets of the
general solve.  The test-only helpers at the end (symmetry deviations and
report, Hausdorff distance, the one-row and one-slit cases of the package's
stacked kernels and bank pass, CSV reader) serve the tests alone, not the
package; the one-row and one-slit helpers call the package's own kernels
and are not references.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from inclusion_forge import mapper
from inclusion_forge.branch import slit_table
from inclusion_forge.geometry import ContourProfile
from inclusion_forge.model import DerivedConstants, SlitConfiguration, SolverError, g0, pole_density
from inclusion_forge.quadrature import (
    cauchy_off_blocks,
    cauchy_off_stack,
    cheb_nodes,
    coef_from_samples,
    pair_roots,
    singular_on_stack,
    slit_roots,
)
from inclusion_forge.solvability import PeriodMatrix


def weighted_integral(f, a: float, b: float) -> float:
    """integral of f(x) / sqrt((x - a)(b - x)) over (a, b), via QUADPACK."""
    val, _err = quad(f, a, b, weight="alg", wvar=(-0.5, -0.5), limit=400)
    return val


def weighted_moment(branch, j: int, f, power: int, N: int) -> float:
    """integral over slit j of f(xi) xi^power / |q(xi)| d xi by N Gauss nodes."""
    a, b = branch.slit(j)
    nodes = cheb_nodes(a, b, N)
    r = smooth_weight(branch.endpoints, j, nodes)
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
    """r_j(x), the |q| factor with slit j's endpoint weight removed, from one array of differences.

    Defined for any real x, since QUADPACK probes a hair outside the
    closed interval.
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


def abs_q_broadcast(endpoints, xi) -> np.ndarray:
    """|q| at real xi from one (..., 2n) array of differences, multiplied by ``np.prod``."""
    x = np.asarray(xi, dtype=float)
    return np.sqrt(np.abs(np.prod(x[..., None] - np.asarray(endpoints), axis=-1)))


def slit_table_r_broadcast(endpoints, nodes) -> np.ndarray:
    """r_j at the (n, N) nodes from one (n, N, 2n - 2) array of differences, multiplied by ``np.prod``."""
    ends = np.reshape(endpoints, (-1, 2))
    n = len(ends)
    # row j: the 2n - 2 endpoints of the other slits, in increasing order
    others = np.broadcast_to(ends, (n, n, 2))[~np.eye(n, dtype=bool)].reshape(n, 2 * n - 2)
    return np.sqrt(np.prod(np.abs(nodes[..., None] - others[:, None, :]), axis=-1))


def top_bank_sign(n: int, m: int) -> int:
    """Sign s with q = s * i * |q| on the top bank of slit m (0-based)."""
    return -1 if (n - 1 - m) % 2 else 1


def bank_value(branch, xi, m: int, bank: int) -> np.ndarray:
    """Boundary value of q on bank +1 (above) or -1 (below) of slit m, by the published sign rule.

    The pure imaginary value +-i (-1)^(n-1-m) |q(xi)|, with |q| from
    :func:`abs_q_broadcast`: 0 at the endpoints.
    """
    return 1j * bank * top_bank_sign(branch.n, m) * abs_q_broadcast(branch.endpoints, xi)


def cauchy_off_80bit(coef, a: float, b: float, zeta) -> np.ndarray:
    """Weighted Cauchy integrals of first-kind series off [a, b], in 80 bits.

    ``coef`` holds rows of coefficients in its last axis, shape (..., L), and
    the result has shape (...) + zeta.shape: one root per target serves
    every row.  Horner's rule in w = 1/(x + root) at the mapped target x,
    with root = sqrt(x - 1) sqrt(x + 1), and the result
    -pi/(h root) sum alpha_m w^m for the half-length h.  Complex targets
    return ``clongdouble``.  Real targets, all off [a, b], are summed in
    real arithmetic and return ``longdouble``: the root is
    sign(x) sqrt(|x - 1|) sqrt(|x + 1|), and each division by a real value
    is a product with its reciprocal, as complex division forms it, so the
    result is the real part of the complex one bit for bit.
    """
    a, b = np.longdouble(a), np.longdouble(b)
    centre, half = (a + b) / 2, (b - a) / 2
    if np.iscomplexobj(zeta):
        x = (np.asarray(zeta, dtype=np.clongdouble) - centre) / half
        root = np.sqrt(x - 1) * np.sqrt(x + 1)
    else:
        x = (np.asarray(zeta, dtype=np.longdouble) - centre) * (1 / half)
        root = np.copysign(np.sqrt(np.abs(x - 1)) * np.sqrt(np.abs(x + 1)), x)
    w = 1 / (x + root)
    coef = np.asarray(coef).astype(x.dtype)
    total = np.zeros(coef.shape[:-1] + x.shape, dtype=x.dtype)
    for m in range(coef.shape[-1] - 1, -1, -1):
        for row in np.ndindex(coef.shape[:-1]):  # a scalar per row adds faster than a broadcast
            total[row] *= w
            total[row] += coef[row + (m,)]
    pi = np.longdouble("3.14159265358979323846264338327950288")
    if x.dtype == np.longdouble:
        return -pi * (1 / (half * root)) * total
    return -pi / (half * root) * total


def full_degree_80_bit_sums(sm, grid) -> tuple[np.ndarray, np.ndarray]:
    """The weighted slit sums of a map at its bank grid, every other slit to full degree in 80 bits, and their scale.

    ``grid`` holds T real parameters per slit, shape (n, T).  Each slit's
    rows are summed in one call at the targets of every other slit, from
    one 80-bit root per target, and the own slit adds the package's float64
    principal value.  The scale of a sum is |its principal value| plus, for
    each other slit, the sum of the moduli of that slit's terms.
    """
    n, coef, weights = sm.branch.n, sm._coef, sm._weights
    pv = weights[:, :, None] * singular_on_stack(coef, sm._centre, sm._half, grid)
    expected = pv.astype(np.longdouble)
    scale = np.abs(pv)
    for j, (a, b) in enumerate(sm.branch.slits):
        others = np.flatnonzero(np.arange(n) != j)
        expected[:, others] += weights[:, j, None, None] * cauchy_off_80bit(coef[:, j], a, b, grid[others])
        for m in others:
            rho, w = slit_roots([a], [b], grid[m])
            powers = np.abs(w) ** np.arange(coef.shape[-1])[:, None]
            for f in range(len(coef)):
                scale[f, m] += np.pi * np.abs(weights[f, j] * (np.abs(coef[f, j]) @ powers / rho[0]))
    return expected, scale


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


def standard_chop(coeffs, tol: float = 2.0**-52) -> int:
    """Kept length of one coefficient row by ``standardChop`` of Chebfun, line by line.

    A scalar transcription of the MATLAB code printed by Aurentz & Trefethen,
    *Chopping a Chebyshev series*, ACM TOMS 43 (2017), with its 1-based
    indices kept in the names.  It returns ``cutoff``, the count of leading
    coefficients kept, except that an all-zero row keeps 0 where the original
    keeps 1.
    """
    coeffs = np.abs(np.asarray(coeffs, dtype=complex))
    n = len(coeffs)
    cutoff = n
    if n < 17:
        return cutoff
    # Step 1: the monotonically nonincreasing envelope, normalized to begin with 1
    m = np.empty(n)
    m[n - 1] = coeffs[n - 1]
    for j in range(n - 2, -1, -1):
        m[j] = max(coeffs[j], m[j + 1])
    if m[0] == 0:
        return 0
    envelope = m / m[0]
    # Step 2: the first point followed by a plateau
    plateau_point = None
    for j in range(2, n + 1):
        j2 = int(np.floor(1.25 * j + 5 + 0.5))  # MATLAB round, half away from zero
        if j2 > n:
            return cutoff  # no plateau
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0:
            plateau_point = j - 1
            break
        r = 3 * (1 - np.log(e1) / np.log(tol))
        if e2 / e1 > r:
            plateau_point = j - 1
            break
    # Step 3: cut where the envelope plus a linear bias to the left is least
    if envelope[plateau_point - 1] == 0:
        return plateau_point
    j3 = int(np.sum(envelope >= tol ** (7 / 6)))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7 / 6)
    cc = np.log10(envelope[:j2])
    cc = cc + np.linspace(0, (-1 / 3) * np.log10(tol), j2)
    d = int(np.argmin(cc)) + 1
    return max(d - 1, 1)


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


def write_contours_csv_per_row(result, path) -> None:
    """The contour CSV of ``result``: a row per vertex, a ``format()`` per float."""
    lines = ["slit_index,bank,xi,re_z,im_z"]
    for p in result.profiles:
        for z, xi, bank in zip(p.points.tolist(), p.xi.tolist(), p.bank.tolist()):
            lines.append(
                f"{p.slit_index},{bank:+d},{format(xi, '.17g')},"
                f"{format(z.real, '.17g')},{format(z.imag, '.17g')}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_WIDTH = 480.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg_per_point(contours, labels=None) -> str:
    """The contour SVG: two closure calls and two ``format()`` calls per point.

    ``labels`` must name every contour.
    """
    all_pts = np.concatenate(contours)
    x0, x1 = float(all_pts.real.min()), float(all_pts.real.max())
    y0, y1 = float(all_pts.imag.min()), float(all_pts.imag.max())
    span = max(x1 - x0, y1 - y0, 1e-12 * max(1.0, abs(x0), abs(x1), abs(y0), abs(y1)))
    pad = 0.05 * span
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    dx, dy = x1 - x0, y1 - y0
    height = _SVG_WIDTH * dy / dx

    def fx(v: float) -> str:
        return format(_SVG_WIDTH * (v - x0) / dx, ".3f")

    def fy(v: float) -> str:
        return format(height * (y1 - v) / dy, ".3f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH:g}" '
        f'height="{height:.3f}" viewBox="0 0 {_SVG_WIDTH:g} {height:.3f}">',
        f'<rect width="{_SVG_WIDTH:g}" height="{height:.3f}" fill="white"/>',
    ]
    if x0 < 0 < x1:
        parts.append(
            f'<line x1="{fx(0)}" y1="0" x2="{fx(0)}" y2="{height:.3f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    if y0 < 0 < y1:
        parts.append(
            f'<line x1="0" y1="{fy(0)}" x2="{_SVG_WIDTH:g}" y2="{fy(0)}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for i, z in enumerate(contours):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{fx(p.real)},{fy(p.imag)}" for p in np.asarray(z).tolist())
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if labels:
            parts.append(
                f'<text x="{8 + 90 * i}" y="16" font-size="12" '
                f'fill="{color}">{labels[i]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- solvability constants, one solve per problem and free value ----------------


def _alternating(moments: np.ndarray, weights) -> np.ndarray:
    return np.add.accumulate(np.asarray(weights) * moments, axis=-1)[..., -1]


def _g0_table(table, derived) -> np.ndarray:
    rows = np.arange(table.nodes.shape[0])[:, None]
    return g0(table.nodes, rows, derived)


def _solve_alternating(period, rhs: np.ndarray) -> np.ndarray:
    n = period.n
    A = period.I[: n - 1, 1:] * (-1.0) ** np.arange(1, n)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:  # period matrix is provably regular
        raise SolverError(f"singular solvability system: {exc}") from exc


def solve_a(period, branch, derived, a0: float) -> np.ndarray:
    """Constants a_j making the first solution bounded, given free a_0."""
    n = branch.n
    if n == 1:
        return np.array([a0])
    alt = (-1.0) ** np.arange(n)
    if derived.pole_at_infinity:
        total = derived.c_double_prime * _alternating(period.I[1:], alt)
    else:
        table = period.table
        moments = table.integrate(
            pole_density(table.nodes, derived) * table.powers[: n - 1]
        )
        total = _alternating(moments, alt)
    rhs = total - period.I[: n - 1, 0] * a0
    return np.concatenate(([a0], _solve_alternating(period, rhs)))


def solve_rho(period, branch, derived, rho0: float) -> np.ndarray:
    """Constants rho_j making the second solution bounded, given free rho_0."""
    n = branch.n
    if n == 1:
        return np.array([rho0])
    table = period.table
    moments = table.integrate(_g0_table(table, derived) * table.powers[: n - 1])
    km = _alternating(moments, (-1.0) ** np.arange(n) * np.asarray(derived.lam))
    rhs = -(km + period.I[: n - 1, 0] * rho0)
    return np.concatenate(([rho0], _solve_alternating(period, rhs)))


def n2_symmetric_a(
    period: PeriodMatrix,
    derived: DerivedConstants,
) -> np.ndarray:
    """Antisymmetric pair for the origin-symmetric case (pole at 0).

    The driving constant is Im c; the printed form writes Im c_{-1}, which
    agrees whenever (tau_inf_bar - tau_bar)/mu is real.  The odd moment is
    the integral over the right slit of d xi / (xi |q|).
    """
    odd = period.table.integrate(1.0 / period.table.nodes)[1]
    a1 = derived.c_double_prime * odd / period.entry(1, 1)
    return np.array([-a1, a1])


def n2_symmetric_rho(
    period: PeriodMatrix,
    derived: DerivedConstants,
) -> np.ndarray:
    """Antisymmetric rho pair for the origin-symmetric case (pole at 0)."""
    odd = period.table.integrate(1.0 / period.table.nodes)[1]
    rho1 = -derived.lam[0] * derived.c_star[0] * odd / period.entry(1, 1)
    return np.array([-rho1, rho1])


def _gauss_elimination(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A x = b by Gaussian elimination with partial pivoting, in the dtype of A."""
    A, b = A.copy(), b.copy()
    n = len(b)
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, p]], b[[k, p]] = A[[p, k]], b[[p, k]]
        f = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= f[:, None] * A[k, k:]
        b[k + 1 :] -= f * b[k]
    x = np.zeros(n, dtype=A.dtype)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1 :] @ x[i + 1 :]) / A[i, i]
    return x


def far_field_sums_80bit(endpoints, derived, free, zeta, N: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """q times the alternating phi and g0_rho Cauchy sums at targets far off the slits, in 80 bits.

    The node table, the moment conditions (in a basis orthonormalized by
    plain Gram-Schmidt in 80-bit arithmetic), the elimination for a_j and
    rho_j and the Cauchy sums, taken as direct N-point Gauss-Chebyshev sums
    of density / (eta - zeta), all run in ``np.longdouble``; q comes from
    ``branch_principal_product``.  The direct sums are accurate only for
    targets many slit lengths away from every slit.
    """
    if free.antisymmetric:
        raise NotImplementedError("the 80-bit constants take the free values as given")
    L, CL = np.longdouble, np.clongdouble
    pi = 4 * np.arctan(L(1))
    n = len(endpoints) // 2
    ends = np.asarray(endpoints, dtype=L).reshape(n, 2)
    t = np.cos((2 * np.arange(1, N + 1, dtype=L) - 1) * pi / (2 * N))
    x = (ends[:, :1] + ends[:, 1:]) / 2 + (ends[:, 1:] - ends[:, :1]) / 2 * t
    others = np.broadcast_to(ends, (n, n, 2))[~np.eye(n, dtype=bool)].reshape(n, 2 * n - 2)
    w = (pi / N) / np.sqrt(np.prod(np.abs(x[..., None] - others[:, None, :]), axis=-1))
    if derived.pole_at_infinity:
        pole = L(derived.c_double_prime) * x
        g0_x = np.asarray(derived.c_star, dtype=L)[:, None] * x
    else:
        zinf = CL(derived.zeta_inf)
        pole = (CL(derived.c) / (x - zinf)).imag
        g0_x = (np.asarray(derived.e, dtype=CL)[:, None] / (x - zinf)).real
    basis = [np.ones_like(x)]
    for _ in range(n - 2):
        v = x * basis[-1]
        for _ in range(2):
            for p in basis:
                v = v - np.sum(w * v * p) / np.sum(w * p * p) * p
        basis.append(v / np.sqrt(np.sum(w * v * v)))
    moments = np.array([np.sum(w * p, axis=-1) for p in basis])  # (n - 1, n)
    alt = (-1.0) ** np.arange(n)
    lam = np.asarray(derived.lam, dtype=L)
    A = moments[:, 1:] * alt[1:]
    h = _gauss_elimination(A, -moments[:, 0])
    pa = _gauss_elimination(A, np.array([np.sum(alt * np.sum(w * pole * p, -1)) for p in basis]))
    pr = _gauss_elimination(A, -np.array([np.sum(alt * lam * np.sum(w * g0_x * p, -1)) for p in basis]))
    a = np.concatenate(([L(free.a0)], pa + L(free.a0) * h))
    rho = np.concatenate(([L(free.rho0)], pr + L(free.rho0) * h))
    phi = a[:, None] - pole
    g0_rho = g0_x + (rho / lam)[:, None]
    z = np.asarray(zeta, dtype=CL).reshape(-1)
    kernel = w[..., None] / (x[..., None] - z)  # (n, N, targets)
    q = branch_principal_product(endpoints, np.asarray(zeta).reshape(-1)).astype(CL)
    phi_sum = np.einsum("j,jk,jkt->t", alt, phi, kernel)
    g0_sum = np.einsum("j,jk,jkt->t", alt * lam, g0_rho, kernel)
    shape = np.shape(zeta)
    return (q * phi_sum).astype(complex).reshape(shape), (q * g0_sum).astype(complex).reshape(shape)


def antisymmetric_free_values(period, branch, derived) -> tuple[float, float]:
    """Free values (a_0, rho_0) giving a_{n-1} = -a_0 and rho_{n-1} = -rho_0.

    Both solved vectors are affine in their free constant, so each fixed
    point is one scalar linear equation probed with two solves.
    """
    n = branch.n
    if n < 2:
        raise SolverError("antisymmetric selection needs at least two slits")

    def fixed_point(solver) -> float:
        v0 = solver(0.0)[n - 1]
        v1 = solver(1.0)[n - 1]
        slope = v1 - v0
        denom = 1.0 + slope
        if abs(denom) < 1e-12:
            raise SolverError("antisymmetric constants are not determined")
        return -v0 / denom

    a0 = fixed_point(lambda t: solve_a(period, branch, derived, t))
    rho0 = fixed_point(lambda t: solve_rho(period, branch, derived, t))
    return a0, rho0


def forward_interior_stress(contours, kappa, tau_inf: complex, mu: float = 1.0,
                            fractions=(0.2, 0.3, 0.4), rays: int = 16) -> list[np.ndarray]:
    """The stress kappa_j mu grad u inside each inclusion, by a Nystrom solve of the forward problem.

    Inclusion j, of modulus kappa_j mu, is bounded by ``contours[j]``, a
    counterclockwise polyline whose last vertex repeats the first and whose
    other vertices are equispaced in a periodic parameter; the matrix, of
    modulus mu, is loaded at infinity by grad u = tau_inf / mu, as a complex
    gradient u_x + i u_y.  With u = u_inf + S sigma, one single-layer density
    on all contours (S sigma(x) = -1/(2 pi) int ln|x - y| sigma(y) ds_y), the
    flux condition mu du/dn outside = kappa_j mu du/dn inside reads
    sigma/2 + lambda_j K' sigma = -lambda_j du_inf/dn, lambda_j =
    (kappa_j - 1)/(kappa_j + 1), K' the normal derivative of S on the
    contours.  The trapezoidal rule at the vertices discretizes it, with z'
    and z'' from the FFT and the diagonal of K' its limit -Im(z''/z')/(4 pi)
    per unit parameter.  One list entry per contour: the stress at
    ``fractions`` of the way from its vertex centroid to ``rays`` of its
    vertices.
    """
    x, normal, weight, diag, lam = [], [], [], [], []
    for points, k in zip(contours, kappa):
        p = np.asarray(points)[:-1]
        m = len(p)
        freq = np.fft.fftfreq(m, 1.0 / m)
        freq[m // 2] = 0.0  # the Nyquist mode has no derivative of one sign
        coef = np.fft.fft(p)
        d1, d2 = np.fft.ifft(1j * freq * coef), np.fft.ifft(-freq**2 * coef)
        x.append(p)
        normal.append(-1j * d1 / np.abs(d1))
        weight.append(np.abs(d1) * (2.0 * np.pi / m))
        diag.append(-(d2 / d1).imag / (2.0 * m))
        lam.append(np.full(m, (k - 1.0) / (k + 1.0)))
    x, normal, weight, diag, lam = map(np.concatenate, (x, normal, weight, diag, lam))
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    kernel = -(diff * normal.conj()[:, None]).real / (2.0 * np.pi * np.abs(diff) ** 2) * weight
    np.fill_diagonal(kernel, diag)
    grad = tau_inf / mu
    sigma = np.linalg.solve(np.eye(len(x)) / 2.0 + lam[:, None] * kernel, -lam * (grad * normal.conj()).real)
    out = []
    for points, k in zip(contours, kappa):
        p = np.asarray(points)[:-1]
        centre = p.mean()
        t = (centre + np.multiply.outer(fractions, p[np.arange(rays) * len(p) // rays] - centre)).ravel()
        inner = grad - (sigma * weight / np.conj(t[:, None] - x)).sum(axis=1) / (2.0 * np.pi)
        out.append(k * mu * inner)
    return out


# -- the slit sums of every family ------------------------------------------------
#
# ``SlitMap``'s off-slit, other-slit and on-slit sums as they were before the
# map skipped the families that keep no term: every family of the set is
# summed, all-zero rows too.  Each takes the map in place of ``self``.


def all_family_sums(off, fams: slice, flat: np.ndarray, route) -> list:
    """``OffSlit.sums`` over every family of the set.

    Beside targets go through :func:`all_family_beside_sums`, the balanced
    and plain ones through the Cauchy sums of every slit.
    """
    out = []
    if len(route.beside):
        out.append((route.beside, *all_family_beside_sums(off, fams, flat[route.beside], route.slit)))
    if len(route.balanced):
        sums, q = _all_family_cauchy_sums(off, fams, flat[route.balanced], off.rows[0])
        sums[np.flatnonzero(off.flags[fams])] /= route.omega
        out.append((route.balanced, sums, q))
    if len(route.plain):
        out.append((route.plain, *_all_family_cauchy_sums(off, fams, flat[route.plain], off.rows[-1])))
    return out


def all_family_beside_sums(off, fams: slice, z: np.ndarray, slit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``OffSlit._beside_sums`` over every family of the set, each own row from its last term L - 1.

    The own rows go through Horner's rule over all L terms, zero terms
    included, one row per target; the other slits' series and Q_j through
    Clenshaw's recurrence per target.
    """
    sm = off.map
    rows = np.append(np.arange(len(mapper.FAMILIES))[fams], len(mapper.FAMILIES))
    rho, w = pair_roots(sm._lo[slit], sm._hi[slit], z)
    x = (z - sm._centre[slit]) / sm._half[slit]
    own = sm._coef[fams][:, slit]  # (F, T, L)
    total = np.zeros(own.shape[:-1], dtype=complex)
    for m in range(own.shape[-1] - 1, -1, -1):
        total = total * w + own[..., m]
    c = off.beside[:, rows][..., slit]  # (K, F + 1, T)
    b1 = b2 = np.zeros(c.shape[1:], dtype=complex)
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = b1 * (2.0 * x) - b2 + c[k], b1
    other = b1 * x - b2 + c[0]
    total *= (-np.pi / rho) * sm._weights[fams][:, slit]
    return total + other[:-1], rho * other[-1]


def _all_family_cauchy_sums(off, fams: slice, t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``OffSlit._cauchy_sums`` over every family of the set."""
    sm = off.map
    weights = sm._weights[fams]
    out = np.empty((len(weights), t.size), dtype=complex)
    q = np.empty(t.size, dtype=complex)
    step = max(1, mapper._BLOCK_VALUES // weights.size)
    for s in range(0, t.size, step):
        roots = slit_roots(sm._lo, sm._hi, t[s : s + step])
        np.prod(roots.rho, axis=0, out=q[s : s + step])
        out[:, s : s + step] = np.einsum("fj,fj...->f...", weights, cauchy_off_stack(rows[fams], roots, off.table))
    return out, q


def all_family_other_sums(sm, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``SlitMap._other_sums`` over every family of the set."""
    coef, weights = sm._coef[fams], sm._weights[fams]
    k, n = len(rows), sm.branch.n
    i, j = np.nonzero(rows[:, None] != sm._rows)
    block_weights = weights[:, j].reshape(len(coef), k, n - 1)
    degree = sm._block_degree[fams].max(axis=0)[rows[i], j]
    order = np.argsort(-degree)
    unsort = np.argsort(order)
    i, j, degree = i[order], j[order], degree[order]
    block_coef = coef[:, j, : degree[0]]
    lo, hi = sm._lo[j, None], sm._hi[j, None]
    out = np.empty((len(coef),) + x.shape)
    step = max(1, mapper._BLOCK_VALUES // (len(coef) * len(j)))
    for s in range(0, x.shape[-1], step):
        vals = cauchy_off_blocks(block_coef, lo, hi, x[i, s : s + step], degree)
        vals = vals[:, unsort].reshape(len(coef), k, n - 1, -1)
        out[..., s : s + step] = np.einsum("fij,fijt->fit", block_weights, vals)
    return out


def all_family_slit_sums(sm, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``SlitMap._slit_sums`` over every family of the set."""
    coef, weights = sm._coef[fams], sm._weights[fams]
    pv = singular_on_stack(coef[:, rows], sm._centre[rows], sm._half[rows], x)
    return all_family_other_sums(sm, fams, x, rows) + weights[:, rows, None] * pv


def all_family_g1_values(sm, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``SlitMap._g1_values`` from the phi sums, also where phi keeps no term."""
    return (abs_q_broadcast(sm.branch.endpoints, x) / np.pi) * all_family_slit_sums(sm, mapper._PHI, x, rows)[0]


# -- one row of the stacked kernels, and one slit of the bank pass ------------------


def gauss_rule(h, a: float, b: float, N: int) -> float:
    """The solve's N-point rule on [a, b]: ``slit_table(...).integrate`` of h at its nodes."""
    table = slit_table(SlitConfiguration((a, b)), N)
    return float(table.integrate(h(table.nodes))[0])


def series_coef(h, a: float, b: float, N: int, M: int) -> np.ndarray:
    """First-kind coefficients through T_M of the callable h on [a, b], from N nodes."""
    return coef_from_samples(h(cheb_nodes(a, b, N)), M)


def off_one_row(coef, a: float, b: float, zeta) -> np.ndarray:
    """``cauchy_off_stack`` of one row on [a, b] at targets zeta off it, shaped like zeta."""
    return cauchy_off_stack(np.asarray(coef)[None], slit_roots([a], [b], zeta))[0]


def pv_one_row(coef, a: float, b: float, xi) -> np.ndarray:
    """``singular_on_stack`` of one row on [a, b] at targets xi in it, shaped like xi."""
    x = np.asarray(xi, dtype=float)
    out = singular_on_stack(np.asarray(coef)[None], [0.5 * (b + a)], [0.5 * (b - a)], x.reshape(-1))
    return out[0].reshape(x.shape)


def slit_banks(sm, xi, m: int) -> mapper.BoundaryPass:
    """Row m of ``sm.banks`` at parameters xi on slit m, each field shaped like xi.

    ``omega`` and ``F`` gain a leading bank axis, bank +1 first.  Every
    other slit takes its targets at the same relative positions in its own
    interval, with the endpoints exactly where xi is at one, so the pass
    runs at T = xi.size targets per slit.
    """
    x = np.asarray(xi, dtype=float)
    a, b = sm.branch.slit(m)
    t = (x.reshape(-1) - a) / (b - a)
    lo, hi = np.array(sm.branch.slits).T[:, :, None]
    grid = np.where(t == 1.0, hi, np.clip(lo + (hi - lo) * t, lo, hi))
    grid[m] = x.reshape(-1)
    vals = sm.banks(grid)
    return mapper.BoundaryPass(
        vals.omega[:, m].reshape((2,) + x.shape), vals.F[:, m].reshape((2,) + x.shape),
        vals.g1[m].reshape(x.shape),
    )


def read_contours_csv(path) -> dict[int, np.ndarray]:
    """The polylines of a contour CSV, by slit index."""
    out: dict[int, list[complex]] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            idx, _bank, _xi, re_z, im_z = line.strip().split(",")
            out.setdefault(int(idx), []).append(complex(float(re_z), float(im_z)))
    return {k: np.asarray(v) for k, v in out.items()}


def _match_indices(profile: ContourProfile, xi: np.ndarray, bank: np.ndarray,
                   tol: float) -> np.ndarray:
    """Index into profile for each requested (xi, bank) parameter pair.

    Slit endpoints are sampled on one bank only (both banks coincide
    there), so an xi-only match is accepted as fallback.
    """
    out = np.empty(len(xi), dtype=int)
    for i, (x, s) in enumerate(zip(xi, bank)):
        near = np.abs(profile.xi - x) <= tol
        cand = np.nonzero(near & (profile.bank == s))[0]
        if len(cand) == 0:
            cand = np.nonzero(near)[0]
        if len(cand) == 0:
            raise ValueError("profiles were not sampled on matching grids")
        out[i] = cand[0]
    return out


def central_symmetry_deviation(p1: ContourProfile, p2: ContourProfile) -> float:
    """max |z1(xi, bank) + z2(-xi, -bank)| over matched sample parameters.

    Meaningful for mirror-image slit pairs sampled on the same relative
    grid (the default sampling is symmetric).
    """
    tol = 1e-9 * max(1.0, np.abs(p1.xi).max())
    idx = _match_indices(p2, -p1.xi[:-1], -p1.bank[:-1], tol)
    return float(np.abs(p1.points[:-1] + p2.points[idx]).max())


def conjugation_symmetry_deviation(profile: ContourProfile) -> float:
    """max |conj(z(xi, +)) - z(xi, -)| over matched sample parameters."""
    tol = 1e-9 * max(1.0, np.abs(profile.xi).max())
    sel = profile.bank[:-1] == 1
    xi = profile.xi[:-1][sel]
    idx = _match_indices(profile, xi, -np.ones(len(xi), dtype=int), tol)
    top = profile.points[:-1][sel]
    return float(np.abs(np.conj(top) - profile.points[idx]).max())


@dataclass(frozen=True)
class SymmetryReport:
    """Maximal deviations, normalized by the larger contour diameter."""

    central_deviation: float | None
    conjugation_deviation: float | None


def symmetry_checks(profiles) -> SymmetryReport:
    """Central symmetry of the outermost mirror pair plus conjugation.

    Central deviation is reported when the first and last slit grids mirror
    each other; conjugation deviation is always reported (maximal over all
    contours).  Deviations are normalized by the larger diameter.
    """
    scale = max(max(p.diameter for p in profiles), 1e-300)
    conj_dev = max(conjugation_symmetry_deviation(p) for p in profiles) / scale
    central = None
    if len(profiles) >= 2:
        try:
            central = central_symmetry_deviation(profiles[0], profiles[-1]) / scale
        except ValueError:
            central = None
    return SymmetryReport(central, conj_dev)


_HAUSDORFF_BLOCK = 2**16  # vertex x segment distances per block


def hausdorff_distance(z1, z2) -> float:
    """:func:`hausdorff_all_pairs` in row blocks of at most _HAUSDORFF_BLOCK distances.

    min and max are exact, so the blocking does not change the value.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)

    def one_sided(a, b):
        step = max(1, _HAUSDORFF_BLOCK // max(len(b) - 1, 1))
        return max(
            _point_segment_matrix(a[i : i + step], b[:-1], b[1:]).min(axis=1).max()
            for i in range(0, len(a), step)
        )

    return float(max(one_sided(z1, z2), one_sided(z2, z1)))
