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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .branch import (
    BranchData,
    SlitTable,
    abs_q,
    check_bank,
    check_on_slit,
    reject_on_slits,
    slit_table,
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
    coef_from_samples,
    degree_table,
    like_input,
    singular_on_stack,
    slit_roots,
    truncation_indicator,
)

if TYPE_CHECKING:  # pragma: no cover
    from .solvability import SolvabilityConstants

log = logging.getLogger(__name__)

# rows of the density table, in order
FAMILIES = ("phi", "g0_rho", "g1_weighted")
_PHI, _MAP, _ALL = slice(0, 1), slice(1, 3), slice(0, 3)
_BLOCK_VALUES = 2**16
_BANK_ROW = {+1: 0, -1: 1}
_BANK_SIGN = np.array([1.0, -1.0])[:, None, None]  # bank +1, then -1


def _row_sum(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-family sums over slit rows: vals (F, R, ...) weighted by (F, R)."""
    return np.einsum("fj,fj...->f...", weights, vals)


@dataclass(frozen=True)
class BoundaryValue:
    """One traced boundary sample: parameter, bank, and physical point."""

    xi: float
    slit_index: int
    bank: int
    z: complex


class BoundaryPass(NamedTuple):
    """Boundary values at a table of slit parameters, both banks at once.

    ``omega`` and ``F`` have shape (2, k, T), bank +1 first, for parameters
    of shape (k, T); ``g1`` (bank independent) has shape (k, T).
    """

    omega: np.ndarray
    F: np.ndarray
    g1: np.ndarray


class SlitMap:
    """Evaluator for one solved configuration (n >= 2 slits).

    Builds the Chebyshev density table once: ``_coef[f, j]`` holds the
    coefficients of family ``FAMILIES[f]`` on slit j, over the interval
    ``_centre[j] +- _half[j]``.  ``phi`` expands the first-problem density
    over the smooth weight factor, ``g0_rho`` the second-problem constant
    part, and ``g1_weighted`` g_1 times the endpoint weight (so the |q|
    factor it carries, which vanishes at every slit endpoint, is handled in
    closed form).  Every Cauchy sum over the slits weights row j of a family
    by ``_weights[f, j]``: (-1)^j for phi, (-1)^j lam_j for the other two.
    Boundary values of every slit and both banks come from one stacked pass
    (:meth:`banks`); the per-slit evaluators are its one-slit case.  On the
    slits, the targets of slit i and the series of another slit j form one
    block, summed to the degree :func:`~inclusion_forge.quadrature.block_degrees`
    gives at the largest |w_j| on slit i, its nearer endpoint; the own slit
    adds its principal value.  The block degrees of every family are built
    with the coefficients and logged once at DEBUG.  Off the slits, the same
    rule gives each family set a
    :class:`~inclusion_forge.quadrature.DegreeTable` from the map alone, on
    the first interior call: a split degree, and the |w| beyond which a pair
    sums further.  All evaluation methods are pure and accept scalars or
    arrays of targets.  ``table`` is the node table
    ``slit_table(branch, numerics.N)``, built here unless the caller
    already has it (the solve passes the period matrix's).
    """

    def __init__(
        self,
        branch: BranchData,
        derived: DerivedConstants,
        constants: "SolvabilityConstants",
        numerics: NumericsConfig = NumericsConfig(),
        table: SlitTable | None = None,
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

        if table is None:
            table = slit_table(branch, numerics.N)
        nodes = table.nodes
        phi = np.reshape(constants.a, (n, 1)) - pole_density(nodes, derived)
        g0_rho = g0(nodes, self._rows[:, None], derived)
        g0_rho += np.reshape(constants.rho_prime, (n, 1))
        # degree M, but at most the N coefficients N samples determine
        self._coef = np.zeros((len(FAMILIES), n, min(M + 1, table.N)))
        self._coef[0] = coef_from_samples(phi / table.r, M)
        self._coef[1] = coef_from_samples(g0_rho / table.r, M)
        # terms of block (target slit i, source slit j) per family
        self._block_degree = np.zeros((len(FAMILIES), n, n), dtype=int)
        self._block_degree[_PHI] = block_degrees(self._coef[_PHI], self._worst_w)
        # g_1 needs the phi rows of every slit, so it is sampled second.
        g1 = self._g1_values(nodes, self._rows)
        self._coef[2] = coef_from_samples(g1 * np.sqrt((nodes - a) * (b - nodes)), M)
        self._degree_tables: dict[tuple[str, ...], DegreeTable] = {}
        self._block_degree[_MAP] = block_degrees(self._coef[_MAP], self._worst_w)
        self._block_degree[:, self._rows, self._rows] = 0  # own-slit blocks are never formed
        degree, L = self._block_degree.max(axis=0), self._coef.shape[-1]
        mean = degree.sum() / (n * (n - 1))
        log.debug(
            "block degrees of the boundary pass: mean %.1f, max %d of L = %d, %.1f%% of the full loop",
            mean, degree.max(), L, 100.0 * mean / L,
        )

    # -- Cauchy sums over the slits ---------------------------------------------

    def _degree_table(self, fams: slice) -> DegreeTable:
        """The degree table of a family set, built on first use."""
        names = FAMILIES[fams]
        table = self._degree_tables.get(names)
        if table is None:
            table = degree_table(self._coef[fams], self._lo, self._hi)
            self._degree_tables[names] = table
            log.debug(
                "degree table for %s: D = %d of L = %d, %.1f%% of slit-centre pairs beyond D",
                "+".join(names), table.D, self._coef.shape[-1], 100.0 * table.beyond,
            )
        return table

    def _off_sums(self, fams: slice, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted sums over all slits of the off-slit Cauchy integrals, and q.

        Both come from one :func:`slit_roots` pass: q is the product over the
        slits of the roots rho_j the kernel divides by.  Each (slit, target)
        pair sums its series to the degree the family set's degree table
        allows.  Targets on a closed slit are rejected.  Targets pass through
        in blocks of at most _BLOCK_VALUES (family, slit, target) values, so
        large batches need no temporaries of batch x slits size.
        """
        reject_on_slits(self.branch, z)
        coef, weights = self._coef[fams], self._weights[fams]
        table = self._degree_table(fams)
        flat = z.reshape(-1)
        out = np.empty((len(coef), flat.size), dtype=complex)
        q = np.empty(flat.size, dtype=complex)
        step = max(1, _BLOCK_VALUES // weights.size)
        for s in range(0, flat.size, step):
            roots = slit_roots(self._lo, self._hi, flat[s : s + step])
            np.prod(roots.rho, axis=0, out=q[s : s + step])
            out[:, s : s + step] = _row_sum(weights, cauchy_off_stack(coef, roots, table))
        return out.reshape((len(coef),) + z.shape), q.reshape(z.shape)

    def _slit_sums(self, fams: slice, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted sums at real targets x[i] on slit rows[i]: shape (F,) + x.shape.

        Every other slit j forms one block with the targets x[i], summed by
        :func:`~inclusion_forge.quadrature.cauchy_off_blocks` in real
        arithmetic to the largest degree of block (rows[i], j) over the
        family set.  The blocks are sorted by degree once; targets pass
        through in column ranges of at most _BLOCK_VALUES (family, block,
        target) values.  The own slit adds the principal value of its row
        (per-row targets of ``singular_on_stack``).
        """
        coef, weights = self._coef[fams], self._weights[fams]
        k, n = len(rows), self.branch.n
        i, j = np.nonzero(rows[:, None] != self._rows)
        block_weights = weights[:, j].reshape(len(coef), k, n - 1)
        degree = self._block_degree[fams].max(axis=0)[rows[i], j]
        order = np.argsort(-degree)
        unsort = np.argsort(order)
        i, j, degree = i[order], j[order], degree[order]
        block_coef = coef[:, j, : degree[0]]
        lo, hi = self._lo[j, None], self._hi[j, None]
        out = np.empty((len(coef),) + x.shape)
        step = max(1, _BLOCK_VALUES // (len(coef) * len(j)))
        for s in range(0, x.shape[-1], step):
            vals = cauchy_off_blocks(block_coef, lo, hi, x[i, s : s + step], degree)
            vals = vals[:, unsort].reshape(len(coef), k, n - 1, -1)
            out[..., s : s + step] = np.einsum("fij,fijt->fit", block_weights, vals)
        pv = singular_on_stack(coef[:, rows], self._centre[rows], self._half[rows], x)
        return out + weights[:, rows, None] * pv

    # -- boundary values -----------------------------------------------------

    def phi(self, xi, m):
        """First-problem boundary density a_m - Im(singular term) on slit m.

        ``m`` is a slit index or an integer array broadcasting against xi.
        """
        return self.constants.a[m] - pole_density(xi, self.derived)

    def _g1_values(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return (abs_q(self.branch, x) / np.pi) * self._slit_sums(_PHI, x, rows)[0]

    def _banks(self, x: np.ndarray, rows: np.ndarray) -> BoundaryPass:
        """Both banks at real x[i] on slit rows[i], x of shape (k, T)."""
        d = self.derived
        phi_sum, g0_sum, g1_sum = self._slit_sums(_ALL, x, rows)
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

    def banks(self, xi) -> BoundaryPass:
        """Map and F on both banks of every slit, and g_1, in one pass.

        ``xi`` has shape (n, T): row m holds parameters on the closed slit m.
        """
        x = np.asarray(xi, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.branch.n:
            raise EvaluationError(
                f"expected one row of parameters per slit, got shape {x.shape}"
            )
        for m in self._rows:
            check_on_slit(self.branch, x[m], m)
        return self._banks(x, self._rows)

    def _one_slit(self, xi, m: int) -> tuple[np.ndarray, BoundaryPass]:
        x = np.asarray(xi, dtype=float)
        check_on_slit(self.branch, x, m)
        return x, self._banks(x.reshape(1, -1), self._rows[m : m + 1])

    def g1(self, xi, m: int):
        """Odd companion density carrying the |q| factor; 0 at endpoints."""
        x, vals = self._one_slit(xi, m)
        return like_input(vals.g1[0].reshape(x.shape), xi)

    # -- the map -----------------------------------------------------------

    def omega_boundary(self, xi, bank: int, m: int):
        """Map value on bank +-1 of slit m, i.e. a point of contour m."""
        check_bank(bank)
        x, vals = self._one_slit(xi, m)
        return like_input(vals.omega[_BANK_ROW[bank], 0].reshape(x.shape), xi)

    def boundary_value(self, xi: float, bank: int, m: int) -> BoundaryValue:
        """One boundary sample as a record with its parameter bookkeeping."""
        return BoundaryValue(float(xi), m, bank, self.omega_boundary(xi, bank, m))

    def omega_interior(self, zeta):
        """Map value off the slits (and away from the pole preimage)."""
        z = np.asarray(zeta, dtype=complex)
        out = singular_part_omega(z, self.derived) + self._omega_regular(z)
        return like_input(out, zeta)

    def omega_regular(self, zeta):
        """Bounded remainder of the map after removing the singular term."""
        return like_input(self._omega_regular(np.asarray(zeta, dtype=complex)), zeta)

    def _omega_regular(self, z: np.ndarray):
        d = self.derived
        (g0_sum, g1_sum), q = self._off_sums(_MAP, z)
        total = g1_sum + (-1.0) ** self.branch.n * 1j * q * g0_sum
        return -1j / (np.pi * d.tau_bar) * total + d.gamma

    # -- the companion function F -------------------------------------------

    def F_boundary(self, xi, bank: int, m: int):
        """Boundary value of F; its imaginary part is exactly a_m."""
        check_bank(bank)
        x, vals = self._one_slit(xi, m)
        return like_input(vals.F[_BANK_ROW[bank], 0].reshape(x.shape), xi)

    def F_interior(self, zeta):
        """F off the slits; bounded at infinity once the a_j are solved."""
        d = self.derived
        z = np.asarray(zeta, dtype=complex)
        if not self._coef[_PHI].any():  # no phi density: F is its singular part
            reject_on_slits(self.branch, z)
            return like_input(d.beta0 + singular_part_F(z, d), zeta)
        (total,), q = self._off_sums(_PHI, z)
        sign = (-1.0) ** (self.branch.n - 1)
        out = d.beta0 + singular_part_F(z, d) - 1j * sign * q / np.pi * total
        return like_input(out, zeta)

    # -- diagnostics ---------------------------------------------------------

    def truncation_indicators(self) -> dict[str, float]:
        """Worst tail-coefficient ratio of each density family."""
        worst = truncation_indicator(self._coef).max(axis=1)
        return dict(zip(FAMILIES, worst.tolist()))


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
