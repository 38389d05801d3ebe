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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .branch import BranchData, abs_q, eval_q, weight_factor
from .model import (
    DegenerateEllipseError,
    DerivedConstants,
    EvaluationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    pole_density,
    singular_part_F,
    singular_part_omega,
)
from .quadrature import (
    cauchy_off_stack,
    cheb_nodes,
    coef_from_samples,
    like_input,
    singular_on_stack,
    truncation_indicator,
)

if TYPE_CHECKING:  # pragma: no cover
    from .solvability import SolvabilityConstants

# rows of the density table, in order
FAMILIES = ("phi", "g0_rho", "g1_weighted")
_PHI, _MAP = slice(0, 1), slice(1, 3)
_BLOCK_VALUES = 2**16


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


def g0(xi, j: int, derived: DerivedConstants):
    """Density constant term of the second problem on slit j.

    Re(e_j / (xi - zeta_inf)) for a finite pole preimage, c_star_j * xi for
    the preimage at infinity; e_j carries the per-inclusion modulus, so
    configurations with unequal stiffness ratios get per-slit densities.
    """
    x = np.asarray(xi, dtype=float)
    if derived.pole_at_infinity:
        out = derived.c_star[j] * x
    else:
        out = (derived.e[j] / (x - derived.zeta_inf)).real
    return like_input(out, xi)


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
    All evaluation methods are pure and accept scalars or arrays of targets.
    """

    def __init__(
        self,
        branch: BranchData,
        derived: DerivedConstants,
        constants: "SolvabilityConstants",
        numerics: NumericsConfig = NumericsConfig(),
    ) -> None:
        self.branch = branch
        self.derived = derived
        self.constants = constants
        self.numerics = numerics
        n, N, M = branch.n, numerics.N, numerics.M
        ends = np.reshape(branch.endpoints, (n, 2))
        a, b = ends[:, :1], ends[:, 1:]
        self._centre = 0.5 * (b + a)[:, 0]
        self._half = 0.5 * (b - a)[:, 0]
        alt = (-1.0) ** np.arange(n)
        lam_alt = alt * np.asarray(derived.lam)
        self._weights = np.stack([alt, lam_alt, lam_alt])

        nodes = cheb_nodes(a, b, N)
        r = np.array([weight_factor(branch, nodes[j], j) for j in range(n)])
        g0_nodes = np.array([g0(nodes[j], j, derived) for j in range(n)])
        phi = np.reshape(constants.a, (n, 1)) - pole_density(nodes, derived)
        g0_rho = g0_nodes + np.reshape(constants.rho_prime, (n, 1))
        # degree M, but at most the N coefficients N samples determine
        self._coef = np.zeros((len(FAMILIES), n, min(M + 1, N)))
        self._coef[0] = coef_from_samples(phi / r, M)
        self._coef[1] = coef_from_samples(g0_rho / r, M)
        # g_1 needs the phi rows of every slit, so it is sampled second.
        g1 = np.array([self._g1_values(nodes[j], j) for j in range(n)])
        self._coef[2] = coef_from_samples(g1 * np.sqrt((nodes - a) * (b - nodes)), M)

    # -- Cauchy sums over the slits ---------------------------------------------

    def _off_sums(self, fams: slice, z: np.ndarray) -> np.ndarray:
        """Weighted sums over all slits of the off-slit Cauchy integrals.

        Targets pass through the kernel in blocks of at most _BLOCK_VALUES
        (family, slit, target) values, so large batches need no temporaries
        of batch x slits size.
        """
        coef, weights = self._coef[fams], self._weights[fams]
        flat = z.reshape(-1)
        out = np.empty((len(coef), flat.size), dtype=complex)
        step = max(1, _BLOCK_VALUES // weights.size)
        for s in range(0, flat.size, step):
            vals = cauchy_off_stack(coef, self._centre, self._half, flat[s : s + step])
            out[:, s : s + step] = _row_sum(weights, vals)
        return out.reshape((len(coef),) + z.shape)

    def _slit_sums(self, fams: slice, x: np.ndarray, m: int) -> np.ndarray:
        """Weighted sums at real x on slit m: principal value on row m."""
        off = np.arange(self.branch.n) != m
        coef, weights = self._coef[fams], self._weights[fams]
        vals = cauchy_off_stack(coef[:, off], self._centre[off], self._half[off], x)
        pv = singular_on_stack(coef[:, [m]], self._centre[[m]], self._half[[m]], x)
        return _row_sum(weights[:, off], vals) + _row_sum(weights[:, [m]], pv)

    # -- densities ---------------------------------------------------------

    def phi(self, xi, m: int):
        """First-problem boundary density a_m - Im(singular term) on slit m."""
        return self.constants.a[m] - pole_density(xi, self.derived)

    def _g1_values(self, x, m: int):
        return (abs_q(self.branch, x) / np.pi) * np.real(self._slit_sums(_PHI, x, m)[0])

    def _check_on_slit(self, x: np.ndarray, m: int) -> None:
        a, b = self.branch.slit(m)
        if np.any((x < a) | (x > b)):
            raise EvaluationError(f"xi outside closed slit {m} = [{a}, {b}]")

    def g1(self, xi, m: int):
        """Odd companion density carrying the |q| factor; 0 at endpoints."""
        x = np.asarray(xi, dtype=float)
        self._check_on_slit(x, m)
        return like_input(self._g1_values(x, m), xi)

    # -- the map -----------------------------------------------------------

    def omega_boundary(self, xi, bank: int, m: int):
        """Map value on bank +-1 of slit m, i.e. a point of contour m."""
        if bank not in (+1, -1):
            raise EvaluationError(f"bank must be +1 or -1, got {bank!r}")
        d = self.derived
        x = np.asarray(xi, dtype=float)
        self._check_on_slit(x, m)
        absq = abs_q(self.branch, x)
        sign_m = bank * (-1.0) ** m
        g0_sum, g1_sum = self._slit_sums(_MAP, x, m)
        total = g1_sum + sign_m * absq * g0_sum
        g0_loc = g0(x, m, d) + self.constants.rho_prime[m]
        g1_loc = self._g1_values(x, m)
        local = np.pi * 1j * d.lam[m] * (g0_loc + sign_m * g1_loc)
        # gamma is added last so a pure translation shifts points bit-exactly
        out = (
            singular_part_omega(x, d)
            - 1j / (np.pi * d.tau_bar) * (total + local)
            + d.gamma
        )
        return like_input(out, xi)

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
        q = eval_q(self.branch, z)
        g0_sum, g1_sum = self._off_sums(_MAP, z)
        total = g1_sum + (-1.0) ** self.branch.n * 1j * q * g0_sum
        return -1j / (np.pi * d.tau_bar) * total + d.gamma

    # -- the companion function F -------------------------------------------

    def F_boundary(self, xi, bank: int, m: int):
        """Boundary value of F; its imaginary part is exactly a_m."""
        if bank not in (+1, -1):
            raise EvaluationError(f"bank must be +1 or -1, got {bank!r}")
        d = self.derived
        x = np.asarray(xi, dtype=float)
        self._check_on_slit(x, m)
        out = (
            d.beta0
            + singular_part_F(x, d)
            + bank * (-1.0) ** m * self._g1_values(x, m)
            + 1j * self.phi(x, m)
        )
        return like_input(out, xi)

    def F_interior(self, zeta):
        """F off the slits; bounded at infinity once the a_j are solved."""
        d = self.derived
        z = np.asarray(zeta, dtype=complex)
        q = eval_q(self.branch, z)
        (total,) = self._off_sums(_PHI, z)
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
    delta = n1_shape_ratio(loading, materials)
    if abs(delta - 1.0) < 1e-12 or abs(delta + 1.0) < 1e-12:
        raise DegenerateEllipseError(
            f"shape ratio delta = {delta} collapses the profile to a segment"
        )
    m1, m2 = _n1_axis_factors(loading, materials)
    x = np.asarray(xi, dtype=float)
    out = free.c_m1 * (m1 * x + 1j * bank * m2 * np.sqrt(1.0 - x * x)) + free.gamma
    return like_input(out, xi)


def n1_circular_profile(phi, loading: Loading, materials: MaterialSet,
                        free: FreeParameters):
    """Boundary point of the single-inclusion circular map at angle phi."""
    delta = n1_shape_ratio(loading, materials)
    if abs(delta - 1.0) < 1e-12 or abs(delta + 1.0) < 1e-12:
        raise DegenerateEllipseError(
            f"shape ratio delta = {delta} collapses the profile to a segment"
        )
    p = np.asarray(phi, dtype=float)
    unit = np.exp(1j * p)
    out = free.c_m1 * (unit + delta / unit) + free.gamma
    return like_input(out, phi)
