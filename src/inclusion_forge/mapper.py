"""Boundary and interior values of the conformal map and its companion F.

The two boundary-value problems are solved on the two-sheeted surface of
u^2 = p(zeta); on the first sheet the solutions reduce to Cauchy-type
integrals over the slit tops with the 1/|q| weight.  Writing |q| as the
smooth factor r_j times the endpoint weight sqrt((eta-a)(b-eta)) turns every
density into a smooth function handled by the Chebyshev machinery in
:mod:`inclusion_forge.quadrature`:

* ``phi_j = (a_j - pole density)/r_j`` drives F and the auxiliary density
  g_1,
* ``(g_0 + rho'_j)/r_j`` drives the map itself,
* ``g_1 * w_j`` (the weight moved to the numerator) turns the unweighted
  Cauchy integrals of g_1 into first-kind-weight integrals of a smooth
  density.

Boundary values are assembled from the principal value plus explicit local
jump term, never from numerical limits, so both banks are exact at slit
endpoints (the bank-dependent terms carry |q| or g_1 and vanish there).
Off the slits of four or more, the first two densities are multiplied by a
polynomial omega with one zero in each gap, and their sums divided by
omega(zeta) wherever |omega(zeta)| reaches its largest value on the slits:
the solvability conditions make that exact, and it keeps the digits that q,
of degree n, would otherwise magnify out of the cancelling sums.  Outside
the hull [lo_0, hi_{n-1}] of those slits, the regular parts of the map and
of F are analytic and bounded, also at infinity, so each is one power
series in the Joukowski variable w of the hull: a target far from the
slits sums that series in place of n slit roots and n Cauchy sums.  Beside
one slit, the sums over the other slits and the product of their roots are
analytic too, so from four slits on each is a Chebyshev series on that
slit: a target beside it forms that slit's root alone.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .branch import (
    BranchData,
    abs_q,
    check_on_slit,
    reject_on_slits,
)
from .model import (
    DegenerateEllipseError,
    DerivedConstants,
    EvaluationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    g0,
    pole_density,
    singular_part_F,
    singular_part_omega,
)
from .quadrature import (
    DegreeTable,
    block_degrees,
    cauchy_off_blocks,
    cauchy_off_stack,
    cheb_nodes,
    coef_from_samples,
    degree_table,
    like_input,
    pair_roots,
    row_lengths,
    singular_on_stack,
    slit_roots,
    standard_chop,
    truncation_indicator,
)
from .solvability import PeriodMatrix, SolvabilityConstants, moment_residuals, period_matrix

log = logging.getLogger(__name__)

# rows of the density table, in order
FAMILIES = ("phi", "g0_rho", "g1_weighted")
_PHI, _MAP, _ALL = slice(0, 1), slice(1, 3), slice(0, 3)
_DIRECT, _G1 = slice(0, 2), slice(2, 3)  # sampled from closed forms; sampled from phi
_BLOCK_VALUES = 2**16
# the one switch to accelerated sums: from this many slits on, off-slit rows are
# balanced and split by one degree table, targets beside a slit sum slit-local series,
# and banks may be traced through interpolants; below it the plain loop keeps 14 digits
# and costs less.  Balanced for families whose moments are at most this relative residual
_BALANCED_FROM = 4
_BALANCED_RESIDUAL = 1e-13
_INTERPOLANT_BITS = 53  # the interpolants of the other-slit sums resolve them to 2^-53
# the slit-local series of the other-slit sums resolve them to 2^-53 beside their slit,
# where the rounding of their coefficients grows by at most 2^_BESIDE_GROWTH_BITS
_BESIDE_GROWTH_BITS = 2
# the far-field series resolve the regular parts to 2^-53 at the targets with |w| <=
# 1/_FAR_RATIO in the variable w of the hull [lo_0, hi_{n-1}], where each term gains a
# bit; below _BALANCED_FROM slits a band series serves 1/_FAR_RATIO < |w| <=
# 1/_BAND_RATIO, where each term gains a third of a bit (_ring_samples).  From four
# slits on a ring at |w| = 1/_BAND_RATIO crosses the switch between balanced and plain
# rows, so those maps have no band series
_FAR_BITS, _FAR_RATIO, _BAND_RATIO = 53, 2.0, 1.25
_BANK_SIGN = np.array([1.0, -1.0])[:, None, None]  # bank +1, then -1


def _row_sum(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-family sums over slit rows: vals (F, R, ...) weighted by (F, R)."""
    return np.einsum("fj,fj...->f...", weights, vals)


class BoundaryPass(NamedTuple):
    """Boundary values at a table of slit parameters, both banks at once.

    ``omega`` and ``F`` have shape (2, n, T), bank +1 first, for parameters
    of shape (n, T); ``g1`` (bank independent) has shape (n, T).
    """

    omega: np.ndarray
    F: np.ndarray
    g1: np.ndarray


class BesideSeries(NamedTuple):
    """Slit-local series of the off-slit sums (:meth:`SlitMap._beside_series`)."""

    reach: np.ndarray  # (n,): beside slit j where |z - lo_j| + |z - hi_j| <= reach[j]; 0 without series
    coef: np.ndarray  # (K, 4, n): Chebyshev coefficients of the other-slit sums of each family, then of Q_j


class InteriorRows(NamedTuple):
    """The rows of a map's off-slit sums, their switch and their degree table (:meth:`SlitMap._interior_rows`)."""

    rows: tuple[np.ndarray, ...]  # per pass, (3, n, L): the balanced rows where a family has them, then the plain rows
    flags: np.ndarray  # the families whose moments are at rounding
    omega_max: float  # largest |omega| on the slits: from it on a target sums the balanced rows
    table: DegreeTable | None  # of every row; None below _BALANCED_FROM slits
    beside: BesideSeries | None  # the slit-local series; None below _BALANCED_FROM slits


class SlitMap:
    """Evaluator for one solved configuration (n >= 2 slits).

    Builds the Chebyshev density table once: ``_coef[f, j]`` holds the
    coefficients of family ``FAMILIES[f]`` on slit j, over the interval
    ``_centre[j] +- _half[j]``.  ``phi`` expands the first-problem density
    over the smooth weight factor, ``g0_rho`` the second-problem constant
    part, and ``g1_weighted`` g_1 times the endpoint weight (so the |q|
    factor it carries, which vanishes at every slit endpoint, is handled in
    closed form).  Each family is chopped right after it is sampled
    (:func:`~inclusion_forge.quadrature.standard_chop`; phi before g_1 is
    sampled from it): rows are zeroed past their kept lengths and the table
    is trimmed to its longest kept row, so every sum below stops there.
    A family that keeps no term is not live, and no sum forms it: its sums
    are 0.  On symmetric layouts phi vanishes, and g_1 and g1_weighted with
    it, so those maps sum g0_rho alone, and F off the slits is its singular
    part.  Every Cauchy sum over the slits weights row j of a family
    by ``_weights[f, j]``: (-1)^j for phi, (-1)^j lam_j for the other two.
    Boundary values of every slit and both banks come from one stacked pass
    (:meth:`banks`).  On the slits, the targets of slit i and the series of
    another slit j form one block, summed to the degree
    :func:`~inclusion_forge.quadrature.block_degrees` gives at the largest
    |w_j| on slit i, its nearer endpoint; the own slit adds its principal
    value.  Below _BALANCED_FROM (four) slits every Cauchy sum is the plain
    loop; from four on, and nothing else selects them, four accelerations
    join: the interpolated bank pass, the balanced rows, the degree table
    and the slit-local series.
    A bank pass of T targets per slit sums the blocks at K first-kind nodes
    of each slit instead, where that sums fewer terms (K S + n T K < T S, S
    the sum of the block degrees): the Chebyshev interpolants of the
    other-slit sums, rewritten in second-kind polynomials, join the own
    rows, and one principal-value pass gives both (:meth:`_bank_sums`); K
    comes from the layout (:func:`_interpolant_nodes`), and the g_1 samples
    of the table always sum directly.  Off the slits, the phi and g0_rho
    rows of a solved map are replaced by rows balanced across the slits
    (:meth:`_interior_rows`), so that the sums q multiplies keep their
    digits far from the slits, and the plain and the balanced rows share one
    :class:`~inclusion_forge.quadrature.DegreeTable`, from the map alone on
    the first interior call: a split degree, and the |w| beyond which a
    pair sums further.  On that call each slit also gets Chebyshev series of
    the other slits' sums and of the product of their roots
    (:meth:`_beside_series`), so that a target beside the slit forms one
    root and sums its own rows and those series (:meth:`_beside_sums`) in
    place of n roots and n Cauchy sums.  Each regular part whose moments
    are at rounding, at any n, also gets a far-field series
    (:meth:`_far_series`): targets with |w| <= 1/_FAR_RATIO in the variable
    of the hull [lo_0, hi_{n-1}] sum it (:meth:`_regular`), and below four
    slits those with |w| <= 1/_BAND_RATIO a band series; the others the
    Cauchy sums.
    The block degrees are logged once at DEBUG with K and the T it is used
    from.  All evaluation methods are pure and accept scalars or arrays of
    targets.  ``period`` is ``period_matrix(branch, numerics)``, built here
    unless the caller already has it (the solve passes its own): its node
    table samples the densities, and its gap basis tests the moments of
    the off-slit rows.
    """

    def __init__(
        self,
        branch: BranchData,
        derived: DerivedConstants,
        constants: SolvabilityConstants,
        numerics: NumericsConfig = NumericsConfig(),
        period: PeriodMatrix | None = None,
    ) -> None:
        self.branch = branch
        self.derived = derived
        self.constants = constants
        self.numerics = numerics
        n, M = branch.n, numerics.M
        ends = np.reshape(branch.endpoints, (n, 2))
        a, b = ends[:, :1], ends[:, 1:]
        self._lo, self._hi = ends[:, 0], ends[:, 1]
        self._centre = 0.5 * (b + a)[:, 0]
        self._half = 0.5 * (b - a)[:, 0]
        self._hull = 0.5 * (self._hi[-1] + self._lo[0]), 0.5 * (self._hi[-1] - self._lo[0])  # centre, half
        self._rows = np.arange(n)
        alt = (-1.0) ** self._rows
        lam_alt = alt * np.asarray(derived.lam)
        self._weights = np.stack([alt, lam_alt, lam_alt])

        # |w_j| at the nearer endpoint of slit i: the worst of block (i, j)
        self._worst_w = np.abs(slit_roots(self._lo, self._hi, ends).w).max(axis=-1).T

        if period is None:
            period = period_matrix(branch, numerics)
        table = period.table
        nodes = table.nodes
        phi = np.reshape(constants.a, (n, 1)) - pole_density(nodes, derived)
        g0_rho = g0(nodes, self._rows[:, None], derived)
        g0_rho += np.reshape(constants.rho_prime, (n, 1))
        self._period = period
        self._interior: InteriorRows | None = None
        # degree M, but at most the N coefficients N samples determine
        raw = np.zeros((len(FAMILIES), n, min(M + 1, table.N)))
        raw[0] = coef_from_samples(phi / table.r, M)
        raw[1] = coef_from_samples(g0_rho / table.r, M)
        self._truncation = np.zeros(len(FAMILIES))
        self._kept = np.zeros(len(FAMILIES), dtype=int)
        self._chop(raw, _DIRECT)
        # terms of block (target slit i, source slit j) per family
        self._block_degree = np.zeros((len(FAMILIES), n, n), dtype=int)
        self._block_degree[_PHI] = block_degrees(self._coef[_PHI], self._worst_w)
        # g_1 needs the phi rows of every slit, so it is sampled second.
        g1 = self._g1_values(nodes, self._rows)
        raw[2] = coef_from_samples(g1 * np.sqrt((nodes - a) * (b - nodes)), M)
        self._chop(raw, _G1)
        self._far: dict[tuple[str, ...], np.ndarray | None] = {}
        self._band: dict[tuple[str, ...], np.ndarray | None] = {}
        self._block_degree[_MAP] = block_degrees(self._coef[_MAP], self._worst_w)
        self._block_degree[:, self._rows, self._rows] = 0  # own-slit blocks are never formed
        degree, L = self._block_degree.max(axis=0), self._coef.shape[-1]
        # the bank pass interpolates from T targets per slit on, where it sums
        # fewer terms than the direct pass: K S + n T K < T S
        S, K = int(degree.sum()), _interpolant_nodes(self._lo, self._hi)
        self._block_terms, self._nodes = S, K
        self._interpolate_from = K * S // (S - n * K) + 1 if n >= _BALANCED_FROM and S > n * K else None
        log.debug(
            "block degrees of the boundary pass: mean %.1f, max %d of L = %d, %.1f%% of the full loop;"
            " kept lengths %s; other-slit interpolants of K = %d nodes, used from T = %s targets per slit",
            S / (n * (n - 1)), degree.max(), L, 100.0 * S / (n * (n - 1) * L),
            ", ".join(f"{f} {k}" for f, k in self.kept_lengths().items()),
            K, "never" if self._interpolate_from is None else self._interpolate_from,
        )

    def _chop(self, raw: np.ndarray, fams: slice) -> None:
        """Chop the rows of a family set in ``raw`` and trim ``_coef`` to the longest kept row.

        Each row is cut at the length :func:`~inclusion_forge.quadrature.standard_chop`
        gives it and zeroed past it, after its truncation indicator is taken.
        A family that keeps no term is not live: every sum skips it.
        """
        self._truncation[fams] = truncation_indicator(raw[fams]).max(axis=1)
        kept = standard_chop(raw[fams])
        raw[fams] *= np.arange(raw.shape[-1]) < kept[..., None]
        self._kept[fams] = kept.max(axis=1)
        self._live = self._kept > 0
        self._coef = raw[..., : max(1, self._kept.max())].copy()

    # -- Cauchy sums over the slits ---------------------------------------------

    def _live_rows(self, fams: slice) -> slice:
        """The live families of a family set, as a slice of the set.

        Any subset of the three families is evenly spaced, so the rows it
        picks are views of the table, not copies.
        """
        f = np.flatnonzero(self._live[fams])
        step = int(f[1] - f[0]) if len(f) > 1 else 1
        return slice(int(f[0]), int(f[-1]) + 1, step) if len(f) else slice(0, 0)

    def _interior_rows(self) -> InteriorRows:
        """The rows the off-slit sums use, which families have moments at rounding, and the degree table.

        Off the slits q multiplies the sums of phi and g0_rho, and q grows
        like zeta^n while those alternating sums cancel down to zeta^-n: summed
        as they are, they lose about as many digits as |q| spans.  With one
        node g_k mid-gap between neighbouring slits, omega(eta) =
        prod_k (eta - g_k) has degree n - 1.  Where a family's rows are
        orthogonal to every polynomial of degree n - 2 (the solvability
        conditions), its sum at zeta equals the sum of the rows times omega,
        divided by omega(zeta): the difference is the sum against
        (omega(eta) - omega(zeta)) / (eta - zeta), a polynomial of degree
        n - 2.  Those rows are balanced across the slits and need no
        cancellation.  Each is its plain row times omega, formed exactly in
        the Chebyshev basis and chopped at its rounding plateau.  The
        difference grows with the moments of the plain rows, taken at the
        table's nodes, so a family is balanced only where they are at
        rounding (:func:`~inclusion_forge.solvability.moment_residuals` at
        most _BALANCED_RESIDUAL); overridden constants, and g1_weighted,
        which q does not multiply, keep their plain rows.  The flags name
        the families whose moments are at rounding at every n, for the
        far-field series.  From _BALANCED_FROM slits on, one degree table
        covers the balanced and the plain rows, zero-padded to one length;
        below it the plain rows are summed whole.  Built on first use.
        """
        if self._interior is None:
            n, table, coef = self.branch.n, self._period.table, self._coef
            flags = np.zeros(len(FAMILIES), dtype=bool)
            theta = (2 * np.arange(1, table.N + 1) - 1) * (np.pi / (2 * table.N))
            values = coef[_DIRECT] @ np.cos(np.arange(coef.shape[-1])[:, None] * theta)
            flags[_DIRECT] = [
                moment_residuals(table, self._period.basis, rows * table.r, weights)[2] <= _BALANCED_RESIDUAL
                for rows, weights in zip(values, self._weights[_DIRECT])
            ]
            rows, omega_max, degrees, beside = coef[None], np.inf, None, None
            if n >= _BALANCED_FROM:
                if flags.any():
                    omega_max = float(np.abs(self.branch.omega(table.nodes)).max())
                    balanced = self._times_gap_poly(coef[_DIRECT])
                    kept = standard_chop(balanced)
                    balanced *= np.arange(balanced.shape[-1]) < kept[..., None]
                    rows = np.zeros((2,) + coef.shape[:-1] + (max(coef.shape[-1], int(kept.max())),))
                    rows[..., : coef.shape[-1]] = coef
                    rows[0, flags] = balanced[flags[_DIRECT], :, : rows.shape[-1]]
                degrees = degree_table(rows.reshape(-1, n, rows.shape[-1]), self._lo, self._hi)
                log.debug(
                    "degree table of the off-slit rows: D = %d of L = %d, %.1f%% of slit-centre pairs beyond D",
                    degrees.D, rows.shape[-1], 100.0 * degrees.beyond,
                )
                # past its own length a plain row is zero: its pass stops there, or at D
                rows = (*rows[:-1], rows[-1, ..., : max(coef.shape[-1], degrees.D)])
                beside = self._beside_series(degrees)
            self._interior = InteriorRows(tuple(rows), flags, omega_max, degrees, beside)
        return self._interior

    def _times_gap_poly(self, coef: np.ndarray) -> np.ndarray:
        """Rows of Chebyshev coefficients times prod_k (eta - g_k), n - 1 terms longer.

        On slit j, eta = centre_j + half_j * t, and t * T_k = (T_{k+1} + T_{k-1}) / 2
        (t * T_0 = T_1), so each factor is one shift-and-add of the rows.
        """
        out = np.zeros(coef.shape[:-1] + (coef.shape[-1] + self.branch.n - 1,))
        out[..., : coef.shape[-1]] = coef
        for node in self.branch.gaps:
            t_times = np.zeros_like(out)
            t_times[..., 1:] = 0.5 * out[..., :-1]
            t_times[..., 1] += 0.5 * out[..., 0]
            t_times[..., :-1] += 0.5 * out[..., 1:]
            out = (self._centre - node)[:, None] * out + self._half[:, None] * t_times
        return out

    def _beside_series(self, table: DegreeTable) -> BesideSeries:
        """Chebyshev series, per slit, of the other slits' weighted sums and of Q_j = prod_{i != j} rho_i.

        Near slit j the sums over the other slits, and the product Q_j of
        their roots, are analytic: their nearest singularity is the nearest
        other endpoint, at Bernstein parameter rho_e of the slit (as in
        :func:`_interpolant_nodes`).  Sampled at K first-kind nodes of the
        slit, their Chebyshev series converge like (rho / rho_e)^K at a
        target of parameter rho, while the rounding of their coefficients
        grows like rho^K there.  K = ceil((53 + b) ln 2 / ln rho_e), b =
        _BESIDE_GROWTH_BITS and 53 = _INTERPOLANT_BITS, so that inside
        rho_s = 2^(b / K) both stay at 2^-53 and 2^(b - 53); a target is
        beside slit j inside that Bernstein ellipse, whose focal distances
        sum to 2 h_j cosh(ln rho_s) for the half-length h_j.  The samples
        are the plain rows' sums of :func:`cauchy_off_stack`, with the map's
        degree table, and the product of the other slits' real roots, formed
        in 80-bit arithmetic where numpy has it.  A slit keeps the direct
        sums where its series would sum more terms per target than they do
        (K for each live family and for Q_j, against D for each live family
        and other slit), and where its samples cancel: their rounding, 2^-53
        of the terms summed, grown 2^b by the series, must stay within
        _BALANCED_RESIDUAL of the sums' largest value.  Built on the first
        interior call and logged once at DEBUG.
        """
        n, live = self.branch.n, np.flatnonzero(self._live)
        K = np.ceil((_INTERPOLANT_BITS + _BESIDE_GROWTH_BITS) * np.log(2.0) / _log_bernstein(self._lo, self._hi))
        K = K.astype(int)
        has = (len(live) + 1) * K < len(live) * (n - 1) * table.D
        coef = np.zeros((int(K[has].max(initial=1)), len(FAMILIES) + 1, n))
        slits = np.flatnonzero(has)
        if len(slits):  # none without a live family
            owner = np.repeat(slits, K[slits])
            nodes = np.concatenate([cheb_nodes(self._lo[j], self._hi[j], K[j]) for j in slits])
            own = (owner, np.arange(len(nodes)))
            terms = cauchy_off_stack(self._coef[live], slit_roots(self._lo, self._hi, nodes), table)
            terms[:, own[0], own[1]] = 0.0
            terms *= self._weights[live][..., None]
            # Q_j in 80-bit arithmetic where numpy has it: one rounding per sample
            x, lo, hi = np.longdouble(nodes), np.longdouble(self._lo)[:, None], np.longdouble(self._hi)[:, None]
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
        reach = np.where(has, 2.0 * self._half * np.cosh(log_reach), 0.0)
        log.debug(
            "slit-local series beside %d of %d slits: K = %s nodes, reach rho_s - 1 = %s",
            has.sum(), n, K[has].tolist(), np.round(np.expm1(log_reach[has]), 4).tolist(),
        )
        return BesideSeries(reach, coef)

    def _off_sums(self, fams: slice, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted sums over all slits of the off-slit Cauchy integrals, and q.

        A target beside a slit (:meth:`_beside_series`, from _BALANCED_FROM
        slits on) takes its sums from :meth:`_beside_sums`; every other
        target from :meth:`_cauchy_sums`.  The slit a target may be beside
        is the one between the gap midpoints around it, and the test is its
        focal distances to that slit's endpoints, so no root is formed for
        it.  Targets on a closed slit are rejected.
        """
        reject_on_slits(self.branch, z)
        beside = self._interior_rows().beside
        flat = z.reshape(-1)
        if beside is None:
            out, q = self._cauchy_sums(fams, flat)
            return out.reshape(out.shape[:1] + z.shape), q.reshape(z.shape)
        slit = np.searchsorted(self.branch.gaps, flat.real)
        near = np.abs(flat - self._lo[slit]) + np.abs(flat - self._hi[slit]) <= beside.reach[slit]
        out = np.empty((len(FAMILIES[fams]), flat.size), dtype=complex)
        q = np.empty(flat.size, dtype=complex)
        index = np.flatnonzero(near)
        if len(index):
            out[:, index], q[index] = self._beside_sums(fams, flat[index], slit[index])
        index = np.flatnonzero(~near)
        if len(index):
            out[:, index], q[index] = self._cauchy_sums(fams, flat[index])
        return out.reshape(out.shape[:1] + z.shape), q.reshape(z.shape)

    def _beside_sums(self, fams: slice, z: np.ndarray, slit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sums and q of :meth:`_off_sums` at targets z beside slits ``slit``, from one root each.

        The own slit j sums its plain rows in its w_j by Horner's rule, from
        the longest row's last nonzero term; the other slits' weighted sums
        are the Chebyshev series of :meth:`_beside_series` at the mapped
        target x = (z - c_j) / h_j, summed by Clenshaw's recurrence, and
        q = rho_j Q_j(x).
        Each target gathers its slit's coefficients, so targets pass through
        in blocks of at most _BLOCK_VALUES targets times the longer of the
        series and the rows.
        """
        coef = self._interior_rows().beside.coef
        weights, live = self._weights[fams], self._live_rows(fams)
        families = np.arange(len(FAMILIES))[fams][live]
        series = coef[:, np.append(families, len(FAMILIES))]  # (K, F + 1, n)
        own = self._coef[families].reshape(-1, self._coef.shape[-1])  # (F n, L)
        own = own[:, : row_lengths(own).max(initial=0)]  # past the longest row every term is 0
        out = np.zeros((len(weights), z.size), dtype=complex)
        q = np.empty(z.size, dtype=complex)
        step = max(1, _BLOCK_VALUES // max(series.shape[0], own.shape[-1]))
        for s in range(0, z.size, step):
            t, j = z[s : s + step], slit[s : s + step]
            rho, w = pair_roots(self._lo[j], self._hi[j], t)
            index = (np.arange(len(families))[:, None] * self.branch.n + j).reshape(-1)
            c, w = own[index], np.tile(w, len(families))
            total = np.zeros(len(index), dtype=complex)
            for m in range(own.shape[-1] - 1, -1, -1):
                total *= w
                total += c[:, m]
            total = total.reshape(len(families), len(t))
            other = _clenshaw(series[..., j], (t - self._centre[j]) / self._half[j])
            total *= (-np.pi / rho) * weights[live][:, j]
            out[live, s : s + step] = total + other[:-1]
            q[s : s + step] = rho * other[-1]
        return out, q

    def _cauchy_sums(self, fams: slice, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted sums over all slits of the off-slit Cauchy integrals at targets flat, and q.

        Both come from one :func:`slit_roots` pass: q is the product over the
        slits of the roots rho_j the kernel divides by.  The rows are those of
        :meth:`_interior_rows`, each balanced family divided by omega at the
        target, and each (slit, target) pair sums its series to the degree
        the map's degree table allows.  Families that are not live are not
        summed: their sums are 0.  Where |omega(zeta)| is below its largest
        modulus on the slits, the balanced sums would lose more digits to
        that division than the plain ones lose to cancellation, so those
        targets (near a gap's node, where omega vanishes, and mostly near
        the slits) sum the plain rows: the two passes differ only in their
        rows and their targets.  Targets pass through in blocks of at most
        _BLOCK_VALUES (family, slit, target) values, so large batches need
        no temporaries of batch x slits size.
        """
        weights, live = self._weights[fams], self._live_rows(fams)
        rows, flags, omega_max, table, _ = self._interior_rows()
        divided = np.flatnonzero(flags[fams]) if len(rows) > 1 else []
        k = flat.size
        if len(divided):  # the balanced targets first, then the plain ones
            gap_poly = self.branch.omega(flat)
            balanced = np.abs(gap_poly) >= omega_max
            order = np.argsort(~balanced, kind="stable")
            flat, k = flat[order], int(balanced.sum())
        out = np.zeros((len(weights), flat.size), dtype=complex)
        q = np.empty(flat.size, dtype=complex)
        step = max(1, _BLOCK_VALUES // weights.size)
        for coef, start, stop in zip(rows, (0, k), (k, flat.size)):
            coef = coef[fams][live]
            for s in range(start, stop, step):
                end = min(s + step, stop)
                roots = slit_roots(self._lo, self._hi, flat[s:end])
                np.prod(roots.rho, axis=0, out=q[s:end])
                if len(coef):
                    out[live, s:end] = _row_sum(weights[live], cauchy_off_stack(coef, roots, table))
        if len(divided):
            out[divided, :k] /= gap_poly[order[:k]]
            out[:, order], q[order] = out.copy(), q.copy()
        return out, q

    def _other_sums(self, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted sums over the other slits at real targets x[i] on slit rows[i].

        Every other slit j forms one block with the targets x[i], summed by
        :func:`~inclusion_forge.quadrature.cauchy_off_blocks` in real
        arithmetic to the largest degree of block (rows[i], j) over the
        family set.  The blocks are sorted by degree once; targets pass
        through in column ranges of at most _BLOCK_VALUES (family, block,
        target) values.  Shape (F,) + x.shape; families that are not live
        are not summed, and their sums are 0.
        """
        live = self._live_rows(fams)
        coef, weights = self._coef[fams][live], self._weights[fams][live]
        k, n = len(rows), self.branch.n
        out = np.zeros((len(FAMILIES[fams]),) + x.shape)
        if not len(coef):
            return out
        i, j = np.nonzero(rows[:, None] != self._rows)
        block_weights = weights[:, j].reshape(len(coef), k, n - 1)
        degree = self._block_degree[fams].max(axis=0)[rows[i], j]
        order = np.argsort(-degree)
        unsort = np.argsort(order)
        i, j, degree = i[order], j[order], degree[order]
        block_coef = coef[:, j, : degree[0]]
        lo, hi = self._lo[j, None], self._hi[j, None]
        step = max(1, _BLOCK_VALUES // (len(out) * len(j)))
        for s in range(0, x.shape[-1], step):
            vals = cauchy_off_blocks(block_coef, lo, hi, x[i, s : s + step], degree)
            vals = vals[:, unsort].reshape(len(coef), k, n - 1, -1)
            out[live, :, s : s + step] = np.einsum("fij,fijt->fit", block_weights, vals)
        return out

    def _slit_sums(self, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted sums at real targets x[i] on slit rows[i]: shape (F,) + x.shape.

        The other slits are summed directly at every target
        (:meth:`_other_sums`), and the own slit adds the principal value of
        its row (per-row targets of ``singular_on_stack``), live families
        only.
        """
        live = self._live_rows(fams)
        coef, weights = self._coef[fams][live], self._weights[fams][live]
        out = self._other_sums(fams, x, rows)
        if len(coef):
            pv = singular_on_stack(coef[:, rows], self._centre[rows], self._half[rows], x)
            out[live] += weights[:, rows, None] * pv
        return out

    def _bank_nodes(self, T: int) -> int:
        """Interpolation nodes K per slit of a bank pass at T targets per slit; 0 sums directly."""
        start = self._interpolate_from
        return self._nodes if start is not None and T >= start else 0

    def _interpolant_rows(self, rows: np.ndarray, K: int) -> np.ndarray:
        """Rows whose principal values on slit rows[i] are the other-slit sums: shape (F, k, K + 1).

        On slit m the sum over the other slits is analytic, its nearest
        singularity one gap away.  It is summed at K first-kind nodes of the
        slit (:meth:`_other_sums`), and its Chebyshev coefficients s_k are
        rewritten in second-kind polynomials: T_0 = U_0, T_1 = U_1 / 2 and
        T_k = (U_k - U_{k-2}) / 2.  The principal value maps a row's term k
        to (pi / h_m) U_{k-1}, so the U-coefficient u_k, scaled by h_m / pi,
        is term k + 1 of the row; term 0 is 0.
        """
        nodes = cheb_nodes(self._lo[rows, None], self._hi[rows, None], K)
        s = coef_from_samples(self._other_sums(_ALL, nodes, rows), K - 1)
        u = 0.5 * s
        u[..., 0] = s[..., 0]
        u[..., :-2] -= 0.5 * s[..., 2:]
        out = np.zeros(s.shape[:-1] + (K + 1,))
        out[..., 1:] = (self._half[rows, None] / np.pi) * u
        return out

    def _bank_sums(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The weighted sums of every family at real targets x[i] on slit rows[i], x of shape (k, T).

        Where :meth:`_bank_nodes` picks interpolants, their rows
        (:meth:`_interpolant_rows`) are added to the weighted own rows, and
        one principal-value pass gives the own slit and the other slits
        together.  Otherwise the other slits are summed directly
        (:meth:`_slit_sums`).  Families that are not live read 0.
        """
        K = self._bank_nodes(x.shape[-1])
        if not K:
            return self._slit_sums(_ALL, x, rows)
        live = self._live_rows(_ALL)
        coef, L = self._coef[live][:, rows], self._coef.shape[-1]
        folded = np.zeros(coef.shape[:-1] + (max(L, K + 1),))
        folded[..., : K + 1] = self._interpolant_rows(rows, K)[live]
        folded[..., :L] += self._weights[live][:, rows, None] * coef
        out = np.zeros((len(FAMILIES),) + x.shape)
        out[live] = singular_on_stack(folded, self._centre[rows], self._half[rows], x)
        return out

    # -- boundary values -----------------------------------------------------

    def phi(self, xi, m):
        """First-problem boundary density a_m - Im(singular term) on slit m.

        ``m`` is a slit index or an integer array broadcasting against xi.
        """
        return self.constants.a[m] - pole_density(xi, self.derived)

    def _g1_values(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if not self._live[_PHI].any():  # no phi density: g_1 vanishes
            return np.zeros(x.shape)
        return (abs_q(self.branch, x) / np.pi) * self._slit_sums(_PHI, x, rows)[0]

    def banks(self, xi) -> BoundaryPass:
        """Map and F on both banks of every slit, and g_1, in one pass.

        ``xi`` has shape (n, T): row m holds parameters on the closed slit m.
        """
        x, rows = np.asarray(xi, dtype=float), self._rows
        if x.ndim != 2 or x.shape[0] != self.branch.n:
            raise EvaluationError(
                f"expected one row of parameters per slit, got shape {x.shape}"
            )
        for m in rows:
            check_on_slit(self.branch, x[m], m)
        d = self.derived
        phi_sum, g0_sum, g1_sum = self._bank_sums(x, rows)
        absq = abs_q(self.branch, x)
        g1 = (absq / np.pi) * phi_sum
        sign = _BANK_SIGN * (-1.0) ** rows[:, None]
        total = g1_sum + sign * absq * g0_sum
        g0_loc = g0(x, rows[:, None], d) + self.constants.rho_prime[rows, None]
        lam = np.asarray(d.lam)[rows, None]
        local = np.pi * 1j * lam * (g0_loc + sign * g1)
        # gamma is added last so a pure translation shifts points bit-exactly
        omega = (
            singular_part_omega(x, d)
            - 1j / (np.pi * d.tau_bar) * (total + local)
            + d.gamma
        )
        F = d.beta0 + singular_part_F(x, d) + sign * g1 + 1j * self.phi(x, rows[:, None])
        return BoundaryPass(omega, F, g1)

    # -- the regular parts off the slits ----------------------------------------

    def _direct(self, fams: slice, z: np.ndarray) -> np.ndarray:
        """The regular part of the map (``_MAP``), or F's q-term (``_PHI``), from the Cauchy sums."""
        sums, q = self._off_sums(fams, z)
        if fams == _PHI:
            return 1j * (-1.0) ** (self.branch.n - 1) * q / np.pi * sums[0]
        total = sums[1] + (-1.0) ** self.branch.n * 1j * q * sums[0]
        return -1j / (np.pi * self.derived.tau_bar) * total + self.derived.gamma

    def _regular(self, fams: slice, z: np.ndarray) -> np.ndarray:
        """:meth:`_direct` at targets z, each target with |w| <= 1/_FAR_RATIO from the far-field series.

        w is the root of the hull [lo_0, hi_{n-1}].  |w| = 1/R (R =
        _FAR_RATIO) is the ellipse whose focal distances |z - lo_0| +
        |z - hi_{n-1}| sum to half (R + 1/R), so a target is far where its
        sum reaches that, and no root is formed at the other targets.  At the
        far targets w = u / (1 + sqrt(1 - u^2)), u = half / (z - centre) the
        reciprocal of the mapped target: the principal root's branch cut is
        the hull itself, its real part is >= 0, so 1 + sqrt never cancels,
        and no step overflows, however large the target.  The series is
        summed by Horner's rule in place.  Below _BALANCED_FROM slits, where
        every off-slit sum is the plain loop, the targets of the band
        1/_FAR_RATIO < |w| <= 1/_BAND_RATIO sum a second series of the same
        kind, sampled on |w| = 1/_BAND_RATIO, and form no slit root either.
        Non-finite targets, the targets in neither, and every target of a
        map without a series are summed directly.  A family set with no live
        family has no sums and needs no root: its part is the constant the
        sums add to, 0 for F's q-term and gamma for the map, and NaN at
        non-finite targets, as everywhere.
        """
        if not self._live[fams].any():  # 0 * z is NaN where z is not finite
            reject_on_slits(self.branch, z)
            return z * 0.0 + (0.0 if fams == _PHI else self.derived.gamma)
        series = self._far_series(fams)
        if series is None:
            return self._direct(fams, z)
        flat, (centre, half) = z.reshape(-1), self._hull
        with np.errstate(over="ignore"):  # past |z| ~ 1e308 the sum overflows to inf: still far
            focal = np.abs(flat - self._lo[0]) + np.abs(flat - self._hi[-1])
        band = self._far_series(fams, _BAND_RATIO) if self.branch.n < _BALANCED_FROM else None
        ratio = _FAR_RATIO if band is None else _BAND_RATIO
        served = np.flatnonzero(np.isfinite(flat) & (focal >= half * (ratio + 1.0 / ratio)))
        u = half / (flat[served] - centre)
        w = u / (1.0 + np.sqrt(1.0 - u * u))
        far = focal[served] >= half * (_FAR_RATIO + 1.0 / _FAR_RATIO)
        far_w = w[far]
        total = np.full(far_w.shape, series[-1])
        for c in series[-2::-1]:
            total *= far_w
            total += c
        out = np.empty(flat.shape, dtype=complex)
        out[served[far]] = total
        if band is not None:
            out[served[~far]] = _power_series(band, w[~far])
        direct = np.ones(flat.shape, dtype=bool)
        direct[served] = False
        if direct.any():
            out[direct] = self._direct(fams, flat[direct])
        return out.reshape(z.shape)

    def _far_series(self, fams: slice, ratio: float = _FAR_RATIO) -> np.ndarray | None:
        """Coefficients A_k of :meth:`_direct` as sum_k A_k w^k off the hull, or None where there is none.

        Outside the hull [lo_0, hi_{n-1}] the regular parts of a solved map
        are analytic and bounded, also at infinity (w = 0), so each is one
        power series in the hull's w.  Where the family q multiplies (the
        first of the set) has its moments at rounding (:meth:`_interior_rows`),
        at any n, the direct values at :func:`_ring_samples` points of
        |w| = 1/ratio give the A_k by one FFT: ratio _FAR_RATIO for the
        far-field series, _BAND_RATIO for the band series of :meth:`_regular`.
        The ring coefficients are chopped at their rounding plateau, and
        the series stops at the degree
        :func:`~inclusion_forge.quadrature.block_degrees` gives at
        |w| = 1/ratio.  Where the chop finds no plateau, or keeps no
        term, there is no series.  Built on the first interior call that
        needs it and logged once at DEBUG.
        """
        names, cache = FAMILIES[fams], self._far if ratio == _FAR_RATIO else self._band
        if names in cache:
            return cache[names]
        series = None
        if self._interior_rows()[1][fams][0]:
            samples = _ring_samples(ratio)
            (centre, half), w = self._hull, np.exp(2j * np.pi * np.arange(samples) / samples) / ratio
            ring = np.fft.fft(self._direct(fams, centre + 0.5 * half * (w + 1.0 / w)))
            ring /= samples
            kept = int(standard_chop(ring))
            if 0 < kept < samples:
                coef = ring[:kept] * ratio ** np.arange(kept)
                series = coef[: int(block_degrees(coef[None, None], np.array([[1.0 / ratio]])).item())]
            log.debug(
                "far-field series for %s: %d terms, ring chopped at %d of %d, at |w| <= %g of the hull",
                "+".join(names), 0 if series is None else len(series), kept, samples, 1.0 / ratio,
            )
        cache[names] = series
        return series

    # -- the map -----------------------------------------------------------

    def omega_interior(self, zeta):
        """Map value off the slits (and away from the pole preimage)."""
        z = np.asarray(zeta, dtype=complex)
        out = singular_part_omega(z, self.derived) + self._regular(_MAP, z)
        return like_input(out, zeta)

    def omega_regular(self, zeta):
        """Bounded remainder of the map after removing the singular term."""
        return like_input(self._regular(_MAP, np.asarray(zeta, dtype=complex)), zeta)

    # -- the companion function F -------------------------------------------

    def F_interior(self, zeta):
        """F off the slits; bounded at infinity once the a_j are solved."""
        d = self.derived
        z = np.asarray(zeta, dtype=complex)
        out = d.beta0 + singular_part_F(z, d) - self._regular(_PHI, z)
        return like_input(out, zeta)

    # -- diagnostics ---------------------------------------------------------

    def bank_work(self, T: int) -> dict[str, int]:
        """Terms a bank pass at T targets per slit sums, and its interpolation nodes K per slit.

        A term is one coefficient times one power or polynomial value at one
        target, in one live family: the blocks of the other slits, each to
        its degree at the K nodes (or at the T targets of the direct pass),
        plus the principal values of the own rows at the T targets.  K is 0
        on the direct pass.
        """
        n, L, K = self.branch.n, self._coef.shape[-1], self._bank_nodes(T)
        per_family = (K or T) * self._block_terms + n * T * (max(L, K + 1) - 1)
        return {"bank_terms": int(self._live.sum()) * per_family, "bank_nodes": K}

    def truncation_indicators(self) -> dict[str, float]:
        """Worst tail-coefficient ratio |alpha_M| of each density family, before the chop."""
        return dict(zip(FAMILIES, self._truncation.tolist()))

    def kept_lengths(self) -> dict[str, int]:
        """Longest chopped row of each density family: the terms its sums run to.

        Not an invariant of the layout: rows near the chop's plateau move by a
        few terms with the frame and with the last bits of the constants.
        """
        return dict(zip(FAMILIES, self._kept.tolist()))


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
    step = max(1, _BLOCK_VALUES // B)
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


def _log_bernstein(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ln rho_e of each slit: the Bernstein parameter of its nearest other endpoint.

    On slit m of half-length h the nearest singularity of a sum over the
    other slits is the endpoint one gap g away, at x = 1 + g / h in the
    mapped variable, so Chebyshev interpolants of it on the slit converge
    like rho_e^-K in the Bernstein ellipse of rho_e = x + sqrt(x^2 - 1).
    """
    gaps = lo[1:] - hi[:-1]
    u = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf)) / (0.5 * (hi - lo))
    return np.log1p(u + np.sqrt(u * (2.0 + u)))


def _interpolant_nodes(lo: np.ndarray, hi: np.ndarray) -> int:
    """Nodes per slit at which Chebyshev interpolants resolve the other-slit sums to 2^-53.

    K = ceil(53 ln 2 / ln rho_e) at the slit of the smallest Bernstein
    parameter rho_e (:func:`_log_bernstein`).
    """
    return int(np.ceil(_INTERPOLANT_BITS * np.log(2.0) / _log_bernstein(lo, hi).min()))


# -- single inclusion closed forms -------------------------------------------


def n1_shape_ratio(loading: Loading, materials: MaterialSet) -> complex:
    """Ellipse shape ratio delta of the circular-map representation."""
    if materials.n != 1:
        raise EvaluationError("shape ratio is defined for a single inclusion")
    k0 = materials.kappa[0]
    if k0 == 1.0:
        raise EvaluationError("kappa = 1 has no bounded construction")
    tau, tau_inf = loading.tau, loading.tau_inf
    if tau == 0:
        raise EvaluationError("interior stress must not vanish")
    return (2.0 * k0 * tau_inf - (k0 + 1.0) * tau) / ((1.0 - k0) * loading.tau_bar)


def _n1_proper_shape_ratio(loading: Loading, materials: MaterialSet) -> complex:
    """The shape ratio delta; raises where delta = +-1 collapses the profile."""
    delta = n1_shape_ratio(loading, materials)
    if abs(delta - 1.0) < 1e-12 or abs(delta + 1.0) < 1e-12:
        raise DegenerateEllipseError(
            f"shape ratio delta = {delta} collapses the profile to a segment"
        )
    return delta


def _n1_axis_factors(loading: Loading, materials: MaterialSet) -> tuple[complex, complex]:
    lt = materials.lambda_tilde()[0]
    tau_bar = loading.tau_bar
    drive = lt * (loading.tau_inf - loading.tau)
    m1 = (drive - 1j * loading.tau2) / tau_bar
    m2 = (loading.tau1 - drive) / tau_bar
    return m1, m2


def n1_slit_profile(xi, bank: int, loading: Loading, materials: MaterialSet,
                    free: FreeParameters):
    """Boundary point of the single-inclusion slit map at xi in [-1, 1]."""
    _n1_proper_shape_ratio(loading, materials)
    m1, m2 = _n1_axis_factors(loading, materials)
    x = np.asarray(xi, dtype=float)
    out = free.c_m1 * (m1 * x + 1j * bank * m2 * np.sqrt(1.0 - x * x)) + free.gamma
    return like_input(out, xi)


def n1_circular_profile(phi, loading: Loading, materials: MaterialSet,
                        free: FreeParameters):
    """Boundary point of the single-inclusion circular map at angle phi."""
    delta = _n1_proper_shape_ratio(loading, materials)
    p = np.asarray(phi, dtype=float)
    unit = np.exp(1j * p)
    out = free.c_m1 * (unit + delta / unit) + free.gamma
    return like_input(out, phi)
