"""Values of a solved map and of its companion F off the slits.

A solve needs the density table of :class:`~inclusion_forge.mapper.SlitMap`
and its values on the slit banks; evaluating the map and F elsewhere is the
library's second use.  ``SlitMap.omega_interior``, ``omega_regular`` and
``F_interior`` add their singular parts to the regular parts of the map's
:class:`OffSlit`, built on the first of those calls.  No solve loads this
module, and it reads nothing of the bank pass.

Off the slits each regular part is q = prod_j rho_j, of degree n, times
weighted Cauchy sums of the density rows.  :meth:`OffSlit.route` sends each
target one of five ways, testing them in this order:

* far, at |w| <= 1/_FAR_RATIO in the Joukowski variable w of the hull
  [lo_0, hi_{n-1}] of the slits: a power series in w, where the moments of
  the family q multiplies are at rounding and its ring samples chop;
* band, below _BALANCED_FROM (four) slits and 1/_FAR_RATIO < |w| <=
  1/_BAND_RATIO: a second series of the same kind;
* beside, from four slits on, in the reach of a slit with series: its own
  rows and Chebyshev series of the other slits' sums and of Q_j;
* balanced, from four slits on, where |omega| reaches its largest value on
  the slits: the rows times omega, divided by omega at the target, for the
  families whose moments are at rounding;
* plain: the plain rows of every slit.

A far or band target forms one root, w of the hull; a beside target the
root of its slit; a balanced or plain target the n roots of every slit.
"""

from __future__ import annotations

import logging
import weakref
from typing import NamedTuple

import numpy as np

from . import mapper
from .branch import reject_on_slits
from .mapper import _BALANCED_FROM, _DIRECT, _INTERPOLANT_BITS, _MAP, _PHI, FAMILIES, SlitMap
from .quadrature import (
    block_degrees, cauchy_off_stack, cheb_nodes, coef_from_samples, degree_table, pair_roots, row_lengths,
    slit_roots, standard_chop,
)
from .solvability import moment_residuals

log = logging.getLogger(__name__)

_BALANCED_RESIDUAL = 1e-13  # relative moments at rounding; also the slit-local series' cancellation gate
# the slit-local series of the other-slit sums resolve them to 2^-53 beside their slit,
# where the rounding of their coefficients grows by at most 2^_BESIDE_GROWTH_BITS
_BESIDE_GROWTH_BITS = 2
# the far-field series resolve the regular parts to 2^-53 at |w| <= 1/_FAR_RATIO, where
# each term gains a bit, and the band series at |w| <= 1/_BAND_RATIO, a third of a bit
# (_ring_samples).  From four slits on a ring at |w| = 1/_BAND_RATIO crosses the switch
# between balanced and plain rows, so those maps have no band series
_FAR_BITS, _FAR_RATIO, _BAND_RATIO = 53, 2.0, 1.25
_NONE = np.zeros(0, dtype=int)


class Route(NamedTuple):
    """Where each target of an off-slit call is summed (:meth:`OffSlit.route`).

    The five routes are ascending indices into the flattened targets, which
    partition the finite ones.  A non-finite target is on no route: nothing
    is summed for it, and its regular part is NaN (:meth:`OffSlit.regular`).
    ``far_w`` and ``band_w`` are the hull's w at the far and the band
    targets, ``slit`` the slit of each beside target, and ``omega`` the gap
    polynomial at each balanced target.
    """

    far: np.ndarray
    band: np.ndarray
    beside: np.ndarray
    balanced: np.ndarray
    plain: np.ndarray
    far_w: np.ndarray
    band_w: np.ndarray
    slit: np.ndarray
    omega: np.ndarray


class OffSlit:
    """The off-slit routes of one solved map, built on its first interior call.

    Off the slits q multiplies the sums of phi and g0_rho, and q grows like
    zeta^n while those alternating sums cancel down to zeta^-n: summed as
    they are, they lose about as many digits as |q| spans.  With one node
    g_k mid-gap between neighbouring slits, omega(eta) = prod_k (eta - g_k)
    has degree n - 1.  Where a family's rows are orthogonal to every
    polynomial of degree n - 2 (the solvability conditions), its sum at zeta
    equals the sum of the rows times omega, divided by omega(zeta): the
    difference is the sum against (omega(eta) - omega(zeta)) / (eta - zeta),
    a polynomial of degree n - 2.  Those rows are balanced across the slits
    and need no cancellation.  Each is its plain row times omega, formed
    exactly in the Chebyshev basis and chopped at its rounding plateau.  The
    difference grows with the moments of the plain rows, taken at the
    table's nodes, so a family is balanced only where they are at rounding
    (:func:`~inclusion_forge.solvability.moment_residuals`; ``flags``);
    overridden constants, and g1_weighted, which q does not multiply, keep
    their plain rows.

    ``rows`` holds the plain rows, after the balanced ones from four slits
    on, where one :class:`~inclusion_forge.quadrature.DegreeTable`
    (``table``) covers both and slits may have slit-local series: a target
    is beside slit j where |z - lo_j| + |z - hi_j| <= ``reach[j]`` (0 without
    series), and ``beside`` (K, 4, n) holds the Chebyshev coefficients of
    the other-slit sums of each family, then of Q_j.  ``far`` and ``band``
    map the family names of a set to its series, None where its ring finds
    no plateau.
    """

    def __init__(self, sm: SlitMap) -> None:
        self.map = weakref.proxy(sm)  # the map holds this object: a strong reference would be a cycle
        n, table, coef = sm.branch.n, sm._period.table, sm._coef
        self.hull = 0.5 * (sm._hi[-1] + sm._lo[0]), 0.5 * (sm._hi[-1] - sm._lo[0])  # centre, half
        self.flags = np.zeros(len(FAMILIES), dtype=bool)
        theta = (2 * np.arange(1, table.N + 1) - 1) * (np.pi / (2 * table.N))
        values = coef[_DIRECT] @ np.cos(np.arange(coef.shape[-1])[:, None] * theta)
        self.flags[_DIRECT] = [
            moment_residuals(table, sm._period.basis, rows * table.r, weights)[2] <= _BALANCED_RESIDUAL
            for rows, weights in zip(values, sm._weights[_DIRECT])
        ]
        rows, self.omega_max, self.table, self.reach, self.beside = coef[None], np.inf, None, None, None
        if n >= _BALANCED_FROM:
            if self.flags.any():
                self.omega_max = float(np.abs(sm.branch.omega(table.nodes)).max())
                balanced = _times_gap_poly(sm, coef[_DIRECT])
                kept = standard_chop(balanced)
                balanced *= np.arange(balanced.shape[-1]) < kept[..., None]
                rows = np.zeros((2,) + coef.shape[:-1] + (max(coef.shape[-1], int(kept.max())),))
                rows[..., : coef.shape[-1]] = coef
                rows[0, self.flags] = balanced[self.flags[_DIRECT], :, : rows.shape[-1]]
            self.table = degree_table(rows.reshape(-1, n, rows.shape[-1]), sm._lo, sm._hi)
            if log.isEnabledFor(logging.DEBUG):
                log.debug(
                    "degree table of the off-slit rows: D = %d of L = %d, %.1f%% of slit-centre pairs beyond D",
                    self.table.D, rows.shape[-1], 100.0 * self.table.beyond,
                )
            # past its own length a plain row is zero: its pass stops there, or at D
            rows = (*rows[:-1], rows[-1, ..., : max(coef.shape[-1], self.table.D)])
            self.reach, self.beside = self._beside_series()
        self.rows = tuple(rows)
        self.far, self.band = {}, {}
        for fams in (_PHI, _MAP):
            if sm._live[fams].any() and self.flags[fams][0]:
                names = FAMILIES[fams]
                self.far[names] = self._series(fams, _FAR_RATIO)
                if n < _BALANCED_FROM and self.far[names] is not None:
                    self.band[names] = self._series(fams, _BAND_RATIO)

    def _beside_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Chebyshev series, per slit, of the other slits' weighted sums and of Q_j = prod_{i != j} rho_i.

        Near slit j the sums over the other slits, and the product Q_j of
        their roots, are analytic: their nearest singularity is the nearest
        other endpoint, at Bernstein parameter rho_e of the slit (as in
        :func:`~inclusion_forge.mapper._interpolant_nodes`).  Sampled at K
        first-kind nodes of the slit, their Chebyshev series converge like
        (rho / rho_e)^K at a target of parameter rho, while the rounding of
        their coefficients grows like rho^K there.  K = ceil((53 + b) ln 2 /
        ln rho_e), b = _BESIDE_GROWTH_BITS and 53 = _INTERPOLANT_BITS, so
        that inside rho_s = 2^(b / K) both stay at 2^-53 and 2^(b - 53); a
        target is beside slit j inside that Bernstein ellipse, whose focal
        distances sum to 2 h_j cosh(ln rho_s) for the half-length h_j.  The
        samples are the plain rows' sums of :func:`cauchy_off_stack`, with
        the map's degree table, and the product of the other slits' real
        roots, formed in 80-bit arithmetic where numpy has it.  A slit keeps
        the direct sums where its series would sum more terms per target
        than they do (K for each live family and for Q_j, against D for each
        live family and other slit), and where its samples cancel: their
        rounding, 2^-53 of the terms summed, grown 2^b by the series, must
        stay within _BALANCED_RESIDUAL of the sums' largest value.  Logged
        once at DEBUG.
        """
        sm = self.map
        n, live = sm.branch.n, np.flatnonzero(sm._live)
        K = np.ceil((_INTERPOLANT_BITS + _BESIDE_GROWTH_BITS) * np.log(2) / sm.branch.log_bernstein).astype(int)
        has = (len(live) + 1) * K < len(live) * (n - 1) * self.table.D
        coef = np.zeros((int(K[has].max(initial=1)), len(FAMILIES) + 1, n))
        slits = np.flatnonzero(has)
        if len(slits):  # none without a live family
            owner = np.repeat(slits, K[slits])
            nodes = np.concatenate([cheb_nodes(sm._lo[j], sm._hi[j], K[j]) for j in slits])
            own = (owner, np.arange(len(nodes)))
            terms = cauchy_off_stack(sm._coef[live], slit_roots(sm._lo, sm._hi, nodes), self.table)
            terms[:, own[0], own[1]] = 0.0
            terms *= sm._weights[live][..., None]
            # Q_j in 80-bit arithmetic where numpy has it: one rounding per sample
            x, lo, hi = np.longdouble(nodes), np.longdouble(sm._lo)[:, None], np.longdouble(sm._hi)[:, None]
            rho = np.copysign(np.sqrt(np.abs((x - lo) * (x - hi))), x - 0.5 * (lo + hi))
            rho[own] = 1.0
            samples = np.concatenate([terms.sum(axis=1), rho.prod(axis=0).astype(float)[None]])
            spread = np.abs(terms).sum(axis=1)
            rows = np.append(live, len(FAMILIES))
            cut = np.cumsum(K[slits])[:-1]
            for j, part, size in zip(slits, np.split(samples, cut, axis=-1), np.split(spread, cut, axis=-1)):
                rounding = 2.0 ** (_BESIDE_GROWTH_BITS - 53) * size.max(axis=-1)
                has[j] = (rounding <= _BALANCED_RESIDUAL * np.abs(part[:-1]).max(axis=-1)).all()
                coef[: K[j], rows, j] = coef_from_samples(part, K[j] - 1).T if has[j] else 0.0
        log_reach = _BESIDE_GROWTH_BITS * np.log(2.0) / K
        reach = np.where(has, 2.0 * sm._half * np.cosh(log_reach), 0.0)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "slit-local series beside %d of %d slits: K = %s nodes, reach rho_s - 1 = %s",
                has.sum(), n, K[has].tolist(), np.round(np.expm1(log_reach[has]), 4).tolist(),
            )
        return reach, coef

    def _series(self, fams: slice, ratio: float) -> np.ndarray | None:
        """Coefficients A_k of the regular part as sum_k A_k w^k off the hull, or None where there is none.

        Outside the hull [lo_0, hi_{n-1}] the regular parts of a solved map
        are analytic and bounded, also at infinity (w = 0), so each is one
        power series in the hull's w.  The slit sums at :func:`_ring_samples`
        points of |w| = 1/ratio give the A_k by one FFT, chopped at their
        rounding plateau and stopped at the degree
        :func:`~inclusion_forge.quadrature.block_degrees` gives at |w| = 1/ratio.
        Without a plateau, or a kept term, there is no series.  Logged at DEBUG.
        """
        samples, series = _ring_samples(ratio), None
        (centre, half), w = self.hull, np.exp(2j * np.pi * np.arange(samples) / samples) / ratio
        ring = np.fft.fft(self.regular(fams, centre + 0.5 * half * (w + 1.0 / w), series=False))
        ring /= samples
        kept = int(standard_chop(ring))
        if 0 < kept < samples:
            coef = ring[:kept] * ratio ** np.arange(kept)
            series = coef[: int(block_degrees(coef[None, None], np.array([[1.0 / ratio]])).item())]
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "far-field series for %s: %d terms, ring chopped at %d of %d, at |w| <= %g of the hull",
                "+".join(FAMILIES[fams]), 0 if series is None else len(series), kept, samples, 1.0 / ratio,
            )
        return series

    def route(self, fams: slice, flat: np.ndarray, series: bool = True) -> Route:
        """The route of each target of flat for the regular part of the family set ``fams``.

        The tests of the module docstring run in its order, each on the
        targets the tests before it leave.  A target is far, or in the band,
        where its focal distances |z - lo_0| + |z - hi_{n-1}| reach half
        (R + 1/R) of the hull (|w| <= 1/R), so no root is formed to tell; only
        where the set has that series and ``series`` is set (it is not for
        the ring samples the series are built from).  A target that is not
        finite takes no route.  A target is beside the slit between the gap
        midpoints around it by its focal distances to that slit.  Targets on
        a closed slit are rejected.
        """
        sm, names = self.map, FAMILIES[fams]
        far = band = beside = slit = balanced = _NONE
        far_w = band_w = omega = np.zeros(0, dtype=complex)
        finite = np.isfinite(flat)
        rest = np.flatnonzero(finite)
        if series and self.far.get(names) is not None:
            (centre, half), banded = self.hull, self.band.get(names) is not None
            with np.errstate(over="ignore"):  # past |z| ~ 1e308 the sum overflows to inf: still far
                focal = np.abs(flat - sm._lo[0]) + np.abs(flat - sm._hi[-1])
            ratio = _BAND_RATIO if banded else _FAR_RATIO
            inside = focal >= half * (ratio + 1.0 / ratio)  # |w| <= 1/ratio
            served, rest = np.flatnonzero(finite & inside), np.flatnonzero(finite & ~inside)
            u = half / (flat[served] - centre)
            w = u / (1.0 + np.sqrt(1.0 - u * u))
            is_far = focal[served] >= half * (_FAR_RATIO + 1.0 / _FAR_RATIO)
            far, band, far_w, band_w = served[is_far], served[~is_far], w[is_far], w[~is_far]
        t = flat[rest]
        reject_on_slits(sm.branch, t)
        if self.reach is not None:
            s = np.searchsorted(sm.branch.gaps, t.real)
            near = np.abs(t - sm._lo[s]) + np.abs(t - sm._hi[s]) <= self.reach[s]
            beside, slit, rest, t = rest[near], s[near], rest[~near], t[~near]
        if len(self.rows) > 1 and self.flags[fams].any():
            gap_poly = sm.branch.omega(t)
            above = np.abs(gap_poly) >= self.omega_max
            balanced, omega, rest = rest[above], gap_poly[above], rest[~above]
        return Route(far, band, beside, balanced, rest, far_w, band_w, slit, omega)

    def regular(self, fams: slice, z: np.ndarray, series: bool = True) -> np.ndarray:
        """The regular part of the map (``_MAP``), or F's q-term (``_PHI``), at targets z, by :meth:`route`.

        The far-field series is summed by Horner's rule in place, the band
        series by :func:`_power_series`, and the others are q times their
        sums (:meth:`sums`).  A family set with no live family needs no root:
        its part is the constant its sums add to, 0 for F's q-term and gamma
        for the map, and NaN at non-finite targets, as everywhere.
        """
        sm, names = self.map, FAMILIES[fams]
        if not sm._live[fams].any():  # 0 * z is NaN where z is not finite
            reject_on_slits(sm.branch, z)
            return z * 0.0 + (0.0 if fams == _PHI else sm.derived.gamma)
        flat = z.reshape(-1)
        route = self.route(fams, flat, series)
        out = np.full(flat.shape, np.nan, dtype=complex)  # at the targets of no route
        if len(route.far):
            total = np.full(route.far_w.shape, self.far[names][-1])
            for c in self.far[names][-2::-1]:
                total *= route.far_w
                total += c
            out[route.far] = total
        if len(route.band):
            out[route.band] = _power_series(self.band[names], route.band_w)
        n, d = sm.branch.n, sm.derived
        for index, sums, q in self.sums(fams, flat, route):
            if fams == _PHI:
                out[index] = 1j * (-1.0) ** (n - 1) * q / np.pi * sums[0]
            else:
                out[index] = -1j / (np.pi * d.tau_bar) * (sums[1] + (-1.0) ** n * 1j * q * sums[0]) + d.gamma
        return out.reshape(z.shape)

    def sums(self, fams: slice, flat: np.ndarray, route: Route) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Weighted sums over all slits of the off-slit Cauchy integrals, and q, at the summed targets.

        One (targets, sums, q) triple for each of the beside, balanced and
        plain routes that has targets, the sums of shape (F, targets).
        Beside targets take their sums from :meth:`_beside_sums`; the
        balanced and the plain ones from :meth:`_cauchy_sums` of their rows,
        each balanced family divided by omega at the target.
        """
        out = []
        if len(route.beside):
            out.append((route.beside, *self._beside_sums(fams, flat[route.beside], route.slit)))
        if len(route.balanced):
            sums, q = self._cauchy_sums(fams, flat[route.balanced], self.rows[0])
            sums[np.flatnonzero(self.flags[fams])] /= route.omega
            out.append((route.balanced, sums, q))
        if len(route.plain):
            out.append((route.plain, *self._cauchy_sums(fams, flat[route.plain], self.rows[-1])))
        return out

    def _beside_sums(self, fams: slice, z: np.ndarray, slit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sums and q of :meth:`sums` at targets z beside slits ``slit``, from one root each.

        The own slit j sums its plain rows in its w_j by Horner's rule, from
        the longest row's last nonzero term; the other slits' weighted sums
        are the Chebyshev series of :meth:`_beside_series` at the mapped
        target x = (z - c_j) / h_j, summed by Clenshaw's recurrence, and
        q = rho_j Q_j(x).
        Each target gathers its slit's coefficients, so targets pass through
        in blocks of at most _BLOCK_VALUES targets times the longer of the
        series and the rows.
        """
        sm = self.map
        weights, live = sm._weights[fams], sm._live[fams]
        families = np.arange(len(FAMILIES))[fams][live]
        series = self.beside[:, np.append(families, len(FAMILIES))]  # (K, F + 1, n)
        own = sm._coef[families].reshape(-1, sm._coef.shape[-1])  # (F n, L)
        own = own[:, : row_lengths(own).max(initial=0)]  # past the longest row every term is 0
        out = np.zeros((len(weights), z.size), dtype=complex)
        q = np.empty(z.size, dtype=complex)
        step = max(1, mapper._BLOCK_VALUES // max(series.shape[0], own.shape[-1]))
        for s in range(0, z.size, step):
            t, j = z[s : s + step], slit[s : s + step]
            rho, w = pair_roots(sm._lo[j], sm._hi[j], t)
            index = (np.arange(len(families))[:, None] * sm.branch.n + j).reshape(-1)
            c, w = own[index], np.tile(w, len(families))
            total = np.zeros(len(index), dtype=complex)
            for m in range(own.shape[-1] - 1, -1, -1):
                total *= w
                total += c[:, m]
            total = total.reshape(len(families), len(t))
            other = _clenshaw(series[..., j], (t - sm._centre[j]) / sm._half[j])
            total *= (-np.pi / rho) * weights[live][:, j]
            out[live, s : s + step] = total + other[:-1]
            q[s : s + step] = rho * other[-1]
        return out, q

    def _cauchy_sums(self, fams: slice, t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted sums over all slits of the off-slit Cauchy integrals of ``rows`` at targets t, and q.

        Both come from one :func:`slit_roots` pass: q is the product over the
        slits of the roots rho_j the kernel divides by.  Each (slit, target)
        pair sums its series to the degree the map's degree table allows.
        Families that are not live are not summed: their sums are 0.  Targets
        pass in blocks of at most _BLOCK_VALUES (family, slit, target) values.
        """
        sm = self.map
        weights, live = sm._weights[fams], sm._live[fams]
        coef = rows[fams][live]
        out = np.zeros((len(weights), t.size), dtype=complex)
        q = np.empty(t.size, dtype=complex)
        step = max(1, mapper._BLOCK_VALUES // weights.size)
        for s in range(0, t.size, step):
            roots = slit_roots(sm._lo, sm._hi, t[s : s + step])
            np.prod(roots.rho, axis=0, out=q[s : s + step])
            if len(coef):
                terms = cauchy_off_stack(coef, roots, self.table)
                out[live, s : s + step] = np.einsum("fj,fj...->f...", weights[live], terms)
        return out, q


def _times_gap_poly(sm: SlitMap, coef: np.ndarray) -> np.ndarray:
    """Rows of Chebyshev coefficients on the slits of sm times prod_k (eta - g_k), n - 1 terms longer.

    On slit j, eta = centre_j + half_j * t, and t * T_k = (T_{k+1} + T_{k-1}) / 2
    (t * T_0 = T_1), so each factor is one shift-and-add of the rows.
    """
    out = np.zeros(coef.shape[:-1] + (coef.shape[-1] + sm.branch.n - 1,))
    out[..., : coef.shape[-1]] = coef
    for node in sm.branch.gaps:
        t_times = np.zeros_like(out)
        t_times[..., 1:] = 0.5 * out[..., :-1]
        t_times[..., 1] += 0.5 * out[..., 0]
        t_times[..., :-1] += 0.5 * out[..., 1:]
        out = (sm._centre - node)[:, None] * out + sm._half[:, None] * t_times
    return out


def _clenshaw(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k, :, t] T_k(x[t]) by Clenshaw's recurrence: shape (R, T) for coef (K, R, T)."""
    x2 = 2.0 * x
    b1 = np.zeros(coef.shape[1:], dtype=complex)
    b2, t = np.zeros_like(b1), np.empty_like(b1)
    for k in range(coef.shape[0] - 1, 0, -1):
        np.multiply(b1, x2, out=t)
        t -= b2
        t += coef[k]
        b1, b2, t = t, b1, b2
    b1 *= x
    b1 -= b2
    b1 += coef[0]
    return b1


def _power_series(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coef[k] w^k at targets w, by baby steps and giant steps.

    With B = ceil(sqrt K) for K terms, one matrix product of the coefficient
    blocks with the powers w^0 ... w^(B-1) gives each block's sum, and
    Horner's rule in w^B adds the blocks: about 2 sqrt K array operations
    where Horner's rule takes 2 K.  Targets pass through in blocks of
    _BLOCK_VALUES / B, so the powers and the block sums of a large batch
    need no temporaries of batch x B size.
    """
    B = int(np.ceil(np.sqrt(len(coef))))
    blocks = np.zeros(-(-len(coef) // B) * B, dtype=coef.dtype)
    blocks[: len(coef)] = coef
    blocks = blocks.reshape(-1, B)
    out = np.empty(w.shape, dtype=complex)
    step = max(1, mapper._BLOCK_VALUES // B)
    for s in range(0, w.size, step):
        t = w[s : s + step]
        powers = np.empty((B, t.size), dtype=complex)
        powers[0] = 1.0
        for i in range(1, B):
            np.multiply(powers[i - 1], t, out=powers[i])
        sums = blocks @ powers
        giant = powers[-1] * t
        total = sums[-1]
        for block in sums[-2::-1]:
            total *= giant
            total += block
        out[s : s + step] = total
    return out


def _ring_samples(ratio: float) -> int:
    """Samples on |w| = 1/ratio of a series that resolves a regular part to 2^-_FAR_BITS inside that ring.

    By the maximum principle the error of the series on the ring bounds it
    at every target inside; term k aliases term k + samples, ratio^-samples
    smaller, and the power of two past twice the _FAR_BITS / log2 ratio terms
    leaves the chop room to see the plateau.
    """
    return 1 << int(np.ceil(np.log2(2.0 * _FAR_BITS / np.log2(ratio))))
