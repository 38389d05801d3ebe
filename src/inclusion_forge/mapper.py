"""The density table of a solved map and its values on the slit banks.

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
Values off the slits come from :mod:`inclusion_forge.interior`, which a
solve never loads.  This module also keeps the printed single-inclusion
forms, which a solve checks its traced contour against.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .branch import BranchData, abs_q, check_on_slit
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
    block_degrees, cauchy_off_blocks, cheb_nodes, coef_from_samples, like_input, singular_on_stack, slit_roots,
    standard_chop, truncation_indicator,
)
from .solvability import PeriodMatrix, SolvabilityConstants, period_matrix

log = logging.getLogger(__name__)

# rows of the density table, in order
FAMILIES = ("phi", "g0_rho", "g1_weighted")
_PHI, _MAP, _ALL = slice(0, 1), slice(1, 3), slice(0, 3)
_DIRECT, _G1 = slice(0, 2), slice(2, 3)  # sampled from closed forms; sampled from phi
_BLOCK_VALUES = 2**16
# the one switch to accelerated sums: from this many slits on, banks may be traced
# through interpolants, and off-slit rows are balanced and split by one degree table
# and targets beside a slit sum slit-local series (inclusion_forge.interior); below it
# the plain loop keeps 14 digits and costs less
_BALANCED_FROM = 4
_INTERPOLANT_BITS = 53  # the interpolants of the other-slit sums resolve them to 2^-53
_BANK_SIGN = np.array([1.0, -1.0])[:, None, None]  # bank +1, then -1


class BoundaryPass(NamedTuple):
    """Boundary values at a table of slit parameters, both banks at once.

    ``omega`` and ``F`` have shape (2, n, T), bank +1 first, for parameters
    of shape (n, T); ``g1`` (bank independent) has shape (n, T).
    """

    omega: np.ndarray
    F: np.ndarray
    g1: np.ndarray


class SlitMap:
    """Evaluator for one solved configuration of any number of slits.

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
    value.  Below _BALANCED_FROM (four) slits every block is the plain loop.
    From four on, a bank pass of T targets per slit sums the blocks at K
    first-kind nodes of each slit instead, where that sums fewer terms
    (K S + n T K < T S, S the sum of the block degrees): the Chebyshev
    interpolants of the other-slit sums, rewritten in second-kind
    polynomials, join the own rows, and one principal-value pass gives both
    (:meth:`_bank_sums`); K comes from the layout (:func:`_interpolant_nodes`),
    and the g_1 samples of the table always sum directly.  The block degrees
    are logged once at DEBUG with K and the T it is used from.

    Off the slits, :meth:`omega_interior`, :meth:`omega_regular` and
    :meth:`F_interior` add their singular parts to the regular parts of an
    :class:`~inclusion_forge.interior.OffSlit`, built on the first of those
    calls.  All evaluation methods are pure and accept scalars or arrays of
    targets.  ``period`` is ``period_matrix(branch, numerics)``, built here
    unless the caller has it: its node table samples the densities, and its
    gap basis tests the moments of the off-slit rows.
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
        self._interior = None  # the OffSlit of the first interior call
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
        self._block_degree[_MAP] = block_degrees(self._coef[_MAP], self._worst_w)
        self._block_degree[:, self._rows, self._rows] = 0  # own-slit blocks are never formed
        degree, L = self._block_degree.max(axis=0), self._coef.shape[-1]
        # the bank pass interpolates from T targets per slit on, where it sums
        # fewer terms than the direct pass: K S + n T K < T S
        S, K = int(degree.sum()), _interpolant_nodes(self._lo, self._hi)
        self._block_terms, self._nodes = S, K
        self._interpolate_from = K * S // (S - n * K) + 1 if n >= _BALANCED_FROM and S > n * K else None
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "block degrees of the boundary pass: mean %.1f, max %d of L = %d, %.1f%% of the full loop;"
                " kept lengths %s; other-slit interpolants of K = %d nodes, used from T = %s targets per slit",
                S / max(1, n * (n - 1)), degree.max(), L, 100.0 * S / max(1, n * (n - 1) * L),
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

    def _other_sums(self, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted sums over the other slits at real targets x[i] on slit rows[i].

        Every other slit j forms one block with the targets x[i], summed by
        :func:`~inclusion_forge.quadrature.cauchy_off_blocks` in real
        arithmetic to the largest degree of block (rows[i], j) over the
        family set.  The blocks are sorted by degree once; targets pass
        through in column ranges of at most _BLOCK_VALUES (family, block,
        target) values.  Shape (F,) + x.shape; families that are not live
        are not summed, and their sums are 0, as are all sums of one slit.
        """
        live = self._live_rows(fams)
        coef, weights = self._coef[fams][live], self._weights[fams][live]
        k, n = len(rows), self.branch.n
        out = np.zeros((len(FAMILIES[fams]),) + x.shape)
        if not len(coef) or n == 1:
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

    # -- off the slits -------------------------------------------------------

    def _off_slit(self):
        """The map's :class:`~inclusion_forge.interior.OffSlit`, built on the first interior call."""
        if self._interior is None:
            from .interior import OffSlit  # the off-slit routes: a solve never loads them
            self._interior = OffSlit(self)
        return self._interior

    def omega_interior(self, zeta):
        """Map value off the slits (and away from the pole preimage)."""
        z = np.asarray(zeta, dtype=complex)
        out = singular_part_omega(z, self.derived) + self._off_slit().regular(_MAP, z)
        return like_input(out, zeta)

    def omega_regular(self, zeta):
        """Bounded remainder of the map after removing the singular term."""
        return like_input(self._off_slit().regular(_MAP, np.asarray(zeta, dtype=complex)), zeta)

    def F_interior(self, zeta):
        """F off the slits; bounded at infinity once the a_j are solved."""
        d = self.derived
        z = np.asarray(zeta, dtype=complex)
        out = d.beta0 + singular_part_F(z, d) - self._off_slit().regular(_PHI, z)
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


def _n1_frame(loading: Loading, free: FreeParameters) -> tuple[Loading, complex]:
    """The loading in the frame of c_m1, turned by e^(-i arg c_m1), and the turn back.

    The printed forms hold for a real positive c_m1: turning the map by
    e^(i theta) turns tau and tau_inf by e^(i theta).  Both profiles are
    then translated by rho0 / tau_bar; a0 moves nothing.
    """
    turn = free.c_m1 / abs(free.c_m1)
    tau, tau_inf = turn.conjugate() * loading.tau, turn.conjugate() * loading.tau_inf
    return Loading(tau.real, tau.imag, tau_inf.real, tau_inf.imag, loading.mu), turn


def _n1_axis_factors(loading: Loading, materials: MaterialSet) -> tuple[complex, complex]:
    lt = materials.lambda_tilde()[0]
    tau_bar = loading.tau_bar
    drive = lt * (loading.tau_inf - loading.tau)
    m1 = (drive - 1j * loading.tau2) / tau_bar
    m2 = (loading.tau1 - drive) / tau_bar
    return m1, m2


def n1_slit_profile(xi, bank: int, loading: Loading, materials: MaterialSet,
                    free: FreeParameters):
    """Boundary point of the single-inclusion slit map at xi in [-1, 1] (see :func:`_n1_frame`)."""
    _n1_proper_shape_ratio(loading, materials)
    framed, turn = _n1_frame(loading, free)
    m1, m2 = _n1_axis_factors(framed, materials)
    x = np.asarray(xi, dtype=float)
    ellipse = abs(free.c_m1) * (m1 * x + 1j * bank * m2 * np.sqrt(1.0 - x * x))
    out = turn * ellipse + free.rho0 / loading.tau_bar + free.gamma
    return like_input(out, xi)


def n1_circular_profile(phi, loading: Loading, materials: MaterialSet,
                        free: FreeParameters):
    """Boundary point of the single-inclusion circular map at angle phi (see :func:`_n1_frame`)."""
    _n1_proper_shape_ratio(loading, materials)
    framed, turn = _n1_frame(loading, free)
    delta = n1_shape_ratio(framed, materials)
    unit = np.exp(1j * np.asarray(phi, dtype=float))
    out = turn * (abs(free.c_m1) * (unit + delta / unit)) + free.rho0 / loading.tau_bar + free.gamma
    return like_input(out, phi)
