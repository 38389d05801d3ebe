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
The contour CSV is written one row at a time, each field by its own
``format()`` call, and the SVG one point at a time, where the package formats
a whole contour at once.  The solvability constants come from one linear
solve per problem and free value, and the antisymmetric free values from two
probe solves each, where the package solves each system once for both
problems.  The test-only helpers at the end (symmetry report,
Hausdorff distance, CSV reader) serve the tests alone, not the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from inclusion_forge.branch import weight_factor
from inclusion_forge.geometry import (
    central_symmetry_deviation,
    conjugation_symmetry_deviation,
)
from inclusion_forge.model import SolverError, g0, pole_density
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
    span = max(x1 - x0, y1 - y0, 1e-12)
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


def read_contours_csv(path) -> dict[int, np.ndarray]:
    """The polylines of a contour CSV, by slit index."""
    out: dict[int, list[complex]] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            idx, _bank, _xi, re_z, im_z = line.strip().split(",")
            out.setdefault(int(idx), []).append(complex(float(re_z), float(im_z)))
    return {k: np.asarray(v) for k, v in out.items()}


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
