"""Contour profiles and their validity diagnostics.

A profile is the closed polyline traced by the map along both banks of one
slit: top bank left to right, bottom bank right to left, Chebyshev-clustered
in the slit parameter so the physical points concentrate near the high
curvature ends.  Validity of a configuration means every profile is a
simple curve, profiles are pairwise disjoint and not nested, and none has
collapsed to a segment.  :func:`contacts` decides the first three for all
profiles at once, from one sweep over every segment of every profile, and
returns a located record per failed test; the verdict reads that list.
Touching closer than 1e-9 of the larger diameter counts as intersecting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_TOUCH_REL = 1e-9
_DEGENERATE_AREA_REL = 1e-10


@dataclass(frozen=True, eq=False)
class ContourProfile:
    """Closed polyline image of one slit with its parameter bookkeeping.

    ``points[k]`` is the image of slit parameter ``xi[k]`` approached from
    bank ``bank[k]``; the first point is repeated at the end to close the
    polyline.  Orientation is normalized counterclockwise.
    """

    slit_index: int
    points: np.ndarray
    xi: np.ndarray
    bank: np.ndarray
    closure_error: float

    def __init__(self, slit_index, points, xi, bank, closure_error) -> None:
        object.__setattr__(self, "slit_index", int(slit_index))
        for name, val, dt in (
            ("points", points, complex), ("xi", xi, float), ("bank", bank, int)
        ):
            arr = np.array(val, dtype=dt)  # owned copy; frozen below
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "closure_error", float(closure_error))

    def __eq__(self, other) -> bool:
        """Field by field, the arrays by value; the cached extents stay out."""
        if not isinstance(other, ContourProfile):
            return NotImplemented
        return (
            self.slit_index == other.slit_index
            and self.closure_error == other.closure_error
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("points", "xi", "bank")
            )
        )

    __hash__ = None  # unhashable, as its arrays are

    # Computed on first access and kept in the instance dict, outside the
    # dataclass fields and the equality above.
    @cached_property
    def signed_area(self) -> float:
        z = self.points
        x, y = z.real, z.imag
        return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        z = self.points
        return (
            float(z.real.min()), float(z.imag.min()),
            float(z.real.max()), float(z.imag.max()),
        )

    @cached_property
    def diameter(self) -> float:
        x0, y0, x1, y1 = self.bbox
        return float(np.hypot(x1 - x0, y1 - y0))

    @property
    def degenerate(self) -> bool:
        scale = max(self.diameter, 1e-300)
        return abs(self.signed_area) < _DEGENERATE_AREA_REL * scale * scale

    def oriented_ccw(self) -> "ContourProfile":
        """Counterclockwise copy (identity when already counterclockwise)."""
        if self.signed_area >= 0:
            return self
        return ContourProfile(
            self.slit_index,
            self.points[::-1],
            self.xi[::-1],
            self.bank[::-1],
            self.closure_error,
        )


def bank_parameter_grid(a, b, P: int) -> np.ndarray:
    """P second-kind Chebyshev points on [a, b] including both endpoints.

    ``a`` and ``b`` broadcast: columns of slit endpoints, shape (n, 1), give
    the (n, P) table with row m on slit m.  The endpoints are pinned to a and
    b exactly (the mapped cosine form misses them by an ulp, which would
    leave a spurious residue of the endpoint-vanishing factors).
    """
    theta = np.pi * np.arange(P) / (P - 1)
    grid = 0.5 * (b + a) - 0.5 * (b - a) * np.cos(theta)
    grid[..., :1] = a
    grid[..., -1:] = b
    return grid


def _closed_profile(m: int, grid: np.ndarray, top: np.ndarray, bot: np.ndarray) -> ContourProfile:
    """Contour m from its bank values: top left to right, bottom back.

    The closure error compares the two bank values at both slit endpoints
    (their bank-dependent terms vanish there analytically).
    """
    P = len(grid)
    closure = max(abs(top[0] - bot[0]), abs(top[-1] - bot[-1]))
    points = np.concatenate([top, bot[-2:0:-1], top[:1]])
    xi = np.concatenate([grid, grid[-2:0:-1], grid[:1]])
    bank = np.concatenate(
        [np.full(P, 1), np.full(max(P - 2, 0), -1), [1]]
    )
    profile = ContourProfile(m, points, xi, bank, closure)
    return profile.oriented_ccw()


def build_profiles(grid: np.ndarray, omega: np.ndarray) -> list[ContourProfile]:
    """One counterclockwise closed profile per slit from its bank values.

    ``grid`` is the (n, P) table of bank parameters, row m on slit m, and
    ``omega`` the map values on both banks of every slit there, shape
    (2, n, P) with bank +1 first.
    """
    top, bot = omega
    return [_closed_profile(m, grid[m], top[m], bot[m]) for m in range(len(grid))]


# -- segment predicates --------------------------------------------------------
#
# Only segment pairs whose bounding boxes overlap are tested.  One sort and
# sweep over the extents of every segment of every contour finds them (the
# any-crossing filter of Shamos & Hoey, FOCS 1976): O(K log K + candidates)
# time for K segments, with no K x K array.  It sweeps along the longer side
# of the box around all segments: contours stretched along y, such as the
# near-vertical slivers of kappa -> 1, share one x-range, where an x sweep
# would pair nearly every segment with every other.  It grows each segment's
# box by its own contour's touch pad, and each test keeps the candidates that
# overlap under the pad of its pair, the larger of the two.  The filter is
# exact: a proper crossing, a collinear overlap or a distance below that pad
# each make the two closed boxes, grown by their own pads, overlap.  The
# sweep hands out its pairs in blocks, and each block is reduced to the first
# offending pair of each test before the next is made, so for n contours
# memory stays O(K + n^2 + _SWEEP_BLOCK + the longest run) however many pairs
# overlap.

_SWEEP_BLOCK = 2**14  # sweep pairs made at once, before the cross extents prune them


def _boxes(s0, s1, pad):
    """Left, right, bottom and top edges of the segments s0s1, grown by pad."""
    return (np.minimum(s0.real, s1.real) - pad, np.maximum(s0.real, s1.real) + pad,
            np.minimum(s0.imag, s1.imag) - pad, np.maximum(s0.imag, s1.imag) + pad)


def _candidate_pairs(s0, s1, pad):
    """Blocks of index pairs (i, j) of distinct segments whose boxes, grown by pad, overlap.

    The sweep runs along the longer side of the box around all segments, x
    unless y is longer; call that axis x here.  Segments sorted by their
    left edge pair with the run of later segments whose left edge is at most
    their right edge; the y-extents prune those pairs.  Each unordered pair
    appears once.  A block covers the longest stretch of runs holding at
    most _SWEEP_BLOCK pairs, or one longer run.
    """
    x0, x1, y0, y1 = _boxes(s0, s1, pad)
    if x0.size and y1.max() - y0.min() > x1.max() - x0.min():
        x0, x1, y0, y1 = y0, y1, x0, x1
    order = np.argsort(x0, kind="stable")
    stop = np.searchsorted(x0[order], x1[order], side="right")
    run = stop - np.arange(1, len(order) + 1)
    end = np.cumsum(run)  # runs lo..hi-1 hold sweep pairs end[lo] - run[lo] to end[hi - 1]
    lo = 0
    while lo < len(order):
        base = end[lo] - run[lo]
        hi = max(lo + 1, int(np.searchsorted(end, base + _SWEEP_BLOCK, side="right")))
        r = run[lo:hi]
        first = np.repeat(np.arange(lo, hi), r)
        second = first + 1 + np.arange(base, end[hi - 1]) - np.repeat(end[lo:hi] - r, r)
        i, j = order[first], order[second]
        keep = (y0[i] <= y1[j]) & (y0[j] <= y1[i])
        yield i[keep], j[keep]
        lo = hi


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_cross(p0, p1, q0, q1) -> np.ndarray:
    """Elementwise proper-or-collinear-overlap test of segments p0p1 and q0q1."""
    ax, ay, bx, by = p0.real, p0.imag, p1.real, p1.imag
    cx, cy, dx, dy = q0.real, q0.imag, q1.real, q1.imag
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


def _point_segment_distance(pts, s0, s1) -> np.ndarray:
    """Distance from pts to the segments s0s1 (elementwise, broadcasting)."""
    d = s1 - s0
    den = np.maximum(np.abs(d) ** 2, 1e-300)
    t = np.clip(((pts - s0) * np.conj(d)).real / den, 0.0, 1.0)
    return np.abs(pts - (s0 + t * d))


def _winding_contains(profile: ContourProfile, point: complex) -> bool:
    z = profile.points - point
    angles = np.angle(z[1:] / z[:-1])
    return abs(np.sum(angles)) > np.pi


def contacts(profiles: Sequence[ContourProfile]) -> list[dict]:
    """One JSON-ready record per failed test, in test order; [] when all pass.

    First each contour: no two of its segments that share no vertex cross.
    Then each pair p < q: no segments of the two cross (``"cross"``) or come
    closer than 1e-9 of the larger diameter (``"touch"``), and neither
    contour contains the other (``"nested"``).  A record holds the slit
    indices of the two contours, the reason and, but for nested, the
    ``[xi, bank]`` of the first offending segment on each (its start vertex).
    """
    n = len(profiles)
    sizes = np.array([len(p.points) - 1 for p in profiles])
    start = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(n), sizes)
    s0 = np.concatenate([p.points[:-1] for p in profiles])
    s1 = np.concatenate([p.points[1:] for p in profiles])
    diam = np.array([p.diameter for p in profiles])
    pads = _TOUCH_REL * np.maximum(diam[:, None], diam[None, :])
    np.fill_diagonal(pads, 0.0)
    box = np.array([p.bbox for p in profiles])
    gap = (box[:, None, 2:] + pads[..., None] < box[None, :, :2]).any(axis=-1)
    near = ~(gap | gap.T)  # contour boxes, grown by the pair's pad, meet
    near_pairs = np.argwhere(np.triu(near, 1))

    # the first offending pair of each test so far, one row per test:
    # (test, 0 for a crossing or 1 for a touch, i, j); crossings come first
    first = np.empty((0, 4), dtype=int)
    for i, j in _candidate_pairs(s0, s1, np.repeat(_TOUCH_REL * diam, sizes)):
        i, j = np.minimum(i, j), np.maximum(i, j)
        a, b, step = owner[i], owner[j], j - i
        keep = (a != b) | ((step > 1) & (step != sizes[a] - 1))  # adjacent segments share a vertex
        if not keep.any():
            continue
        i, j, a, b = i[keep], j[keep], a[keep], b[keep]
        x0, x1, y0, y1 = _boxes(s0[i], s1[i], pads[a, b])
        u0, u1, v0, v1 = _boxes(s0[j], s1[j], pads[a, b])
        keep = near[a, b] & (u0 <= x1) & (x0 <= u1) & (v0 <= y1) & (y0 <= v1)
        i, j, a, b = i[keep], j[keep], a[keep], b[keep]

        cross = _segments_cross(s0[i], s1[i], s0[j], s1[j])
        hit = cross.copy()
        rest = (a != b) & ~cross
        ir, jr = i[rest], j[rest]
        hit[rest] = np.minimum(
            _point_segment_distance(np.stack([s0[ir], s1[ir]]), s0[jr], s1[jr]).min(0),
            _point_segment_distance(np.stack([s0[jr], s1[jr]]), s0[ir], s1[ir]).min(0),
        ) < pads[a[rest], b[rest]]
        rows = np.concatenate([first, np.column_stack((a * n + b, ~cross, i, j))[hit]])
        rows = rows[np.lexsort(rows.T[::-1])]
        first = rows[np.unique(rows[:, 0], return_index=True)[1]]
    found = {
        divmod(t, n): ("touch" if touch else "cross", i - start[t // n], j - start[t % n])
        for t, touch, i, j in first.tolist()
    }
    for p, q in near_pairs.tolist():
        if (p, q) not in found and (
            _winding_contains(profiles[p], profiles[q].points[0])
            or _winding_contains(profiles[q], profiles[p].points[0])
        ):
            found[p, q] = ("nested", -1, -1)

    records = []
    for p, q in sorted(found, key=lambda t: (t[0] != t[1], t)):
        reason, ip, iq = found[p, q]
        pair = (profiles[p], ip), (profiles[q], iq)
        records.append({
            "contours": [c.slit_index for c, _ in pair],
            "reason": reason,
            "at": None if reason == "nested" else [[float(c.xi[m]), int(c.bank[m])] for c, m in pair],
        })
    return records


# -- shape diagnostics ---------------------------------------------------------


def fit_ellipse(points) -> float:
    """Scale-normalized residual of the best algebraic conic fit.

    Points are centered and scaled to unit RMS, the 6-coefficient conic is
    fit with a unit-norm constraint, and the RMS algebraic residual of the
    optimal coefficient vector is returned: ~1e-15 for exact conics, order
    1e-1 for a square.
    """
    z = np.asarray(points, dtype=complex)
    if abs(z[0] - z[-1]) == 0.0 and len(z) > 1:
        z = z[:-1]
    x, y = z.real, z.imag
    x = x - x.mean()
    y = y - y.mean()
    scale = np.sqrt(np.mean(x * x + y * y))
    if scale == 0.0:
        return 0.0
    x, y = x / scale, y / scale
    design = np.column_stack(
        [x * x, x * y, y * y, x, y, np.ones_like(x)]
    )
    _, sing, _ = np.linalg.svd(design, full_matrices=False)
    return float(sing[-1] / np.sqrt(len(x)))


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
