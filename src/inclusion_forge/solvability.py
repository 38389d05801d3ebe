"""Period integrals and the linear systems fixing the constants a_j, rho_j.

Boundedness of the two surface solutions at the pair of infinite points
forces n-1 moment conditions each: the sign-alternating slit sums of each
density against every polynomial of degree <= n-2, with the 1/|q| weight,
must vanish.  Any basis of those polynomials gives the same constants; the
monomials xi^m make the system's condition number grow exponentially in n,
so the conditions are imposed against the Lagrange polynomials of the n-1
gap midpoints, each scaled by its largest slit moment (:func:`gap_basis`).
Each set of moments is then one array reduction over one
:class:`SlitTable`.  The two systems share their matrix and differ only in
the driving density, so :func:`solve_constants` fixes both constant vectors
together, for any n >= 2.

The two- and three-slit closed forms are kept alongside as printed, in the
monomial moments

    I_mj = integral over slit j of  xi^(m-1) / |q(xi)| d xi  > 0,

and cross-checked against the general solve.  They sum their moments over
the period matrix's table too, so the cross-check tests the printed algebra
against the general linear solve in another basis, not a second quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .branch import SlitTable, slit_table
from .model import (
    DerivedConstants, FreeParameters, NumericsConfig, SlitConfiguration, SolverError, g0, pole_density,
)

_SYMMETRY_TOL = 1e-12  # mirror pair: endpoint sums within this of the largest |endpoint|


def gap_basis(branch: SlitConfiguration, table: SlitTable) -> np.ndarray:
    """:meth:`~inclusion_forge.model.SlitConfiguration.lagrange` at the table's nodes: shape (n-1, n, N), read-only.

    Each L_k is divided by its largest slit moment, so every row of the
    system matrix has largest entry 1 in modulus.
    """
    values = branch.lagrange(table.nodes)
    out = values / np.abs(table.integrate(values)).max(axis=-1)[:, None, None]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PeriodMatrix:
    """The moments of the slit tops that fix the constants, on one table.

    ``basis`` is :func:`gap_basis` of ``table`` and ``moments[m, j]`` the
    integral of its row p_m over slit j with the 1/|q| weight: the system
    matrix is read from them, and the right-hand sides of
    :func:`solve_constants` are summed over the same table and basis.

    ``I`` holds the monomial moments I_mj, rows m = 1..n, columns
    j = 0..n-1, for the printed closed forms; it is summed on first use, so
    no general solve builds the monomial table.  Row n is one moment past
    the solvability range; it feeds the printed three-slit forms of the
    pole-at-infinity case.
    """

    table: SlitTable
    basis: np.ndarray
    moments: np.ndarray

    @property
    def n(self) -> int:
        return self.table.nodes.shape[0]

    @cached_property
    def I(self) -> np.ndarray:
        out = self.table.integrate(self.table.powers)
        out.setflags(write=False)
        return out

    def entry(self, m: int, j: int) -> float:
        """I_mj with the 1-based moment index m used in the formulas."""
        return float(self.I[m - 1, j])


def _alternating(moments: np.ndarray, weights) -> np.ndarray:
    """sum_j weights_j * moments[..., j], the sign-alternating slit sums.

    Accumulated in slit order: the solvability systems amplify a change in
    the last digit of these sums by their condition number.
    """
    return np.add.accumulate(np.asarray(weights) * moments, axis=-1)[..., -1]


def _moments(table: SlitTable, basis: np.ndarray, density, weights) -> np.ndarray:
    """sum_j weights_j * integral over slit j of density * p_m / |q|, per row m of basis.

    ``density`` holds the samples at the table's nodes, shape (n, N), and
    ``basis`` the values of the p_m there.
    """
    return _alternating(table.integrate(density * basis), weights)


def moment_residuals(
    table: SlitTable, basis: np.ndarray, density, weights
) -> tuple[np.ndarray, np.ndarray, float]:
    """The moments of :func:`_moments`, their scales and the largest ratio of the two.

    The scale of moment m is the sum of the integrals of |density * p_m|,
    each weighted by |weights_j|, which the moment of |density| is not; the
    ratio is 0 where the moment conditions hold exactly.
    """
    res = _moments(table, basis, density, weights)
    scale = _alternating(table.integrate(np.abs(density * basis)), np.abs(weights))
    return res, scale, float(np.max(np.abs(res) / np.maximum(scale, 1e-30), initial=0.0))


def _g0_table(table: SlitTable, derived: DerivedConstants) -> np.ndarray:
    """g0 of every slit at its nodes: shape (n, N)."""
    rows = np.arange(table.nodes.shape[0])[:, None]
    return g0(table.nodes, rows, derived)


def period_matrix(branch: SlitConfiguration, numerics: NumericsConfig = NumericsConfig()) -> PeriodMatrix:
    """The N-point table of the branch, its gap basis and the basis moments."""
    table = slit_table(branch, numerics.N)
    basis = gap_basis(branch, table)
    moments = table.integrate(basis)
    moments.setflags(write=False)
    return PeriodMatrix(table, basis, moments)


def system_matrix(period: PeriodMatrix) -> np.ndarray:
    """The (n-1)x(n-1) sign-alternating block (-1)^j * moments[m, j], j = 1..n-1."""
    n = period.n
    return period.moments[:, 1:] * (-1.0) ** np.arange(1, n)


@dataclass(frozen=True)
class SolvabilityConstants:
    """Solved constant vectors of both boundary-value problems."""

    a: np.ndarray
    rho: np.ndarray
    rho_prime: np.ndarray

    def __init__(self, a, rho, rho_prime) -> None:
        for name, value in (("a", a), ("rho", rho), ("rho_prime", rho_prime)):
            arr = np.array(value, dtype=float)  # owned copy; frozen below
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.a)


def build_constants(a, rho, derived: DerivedConstants) -> SolvabilityConstants:
    """Bundle a, rho with the derived per-slit offsets rho'_j = rho_j / lambda_j."""
    rho = np.asarray(rho, dtype=float)
    return SolvabilityConstants(a, rho, rho / np.asarray(derived.lam))


def solve_constants(
    period: PeriodMatrix,
    derived: DerivedConstants,
    free: FreeParameters,
) -> SolvabilityConstants:
    """Constants a_j, rho_j making both surface solutions bounded.

    Moving the free constant's column to the right-hand side leaves one
    system for both problems: each solution is a particular one plus its
    free constant times the shared response h to that column.  With
    ``free.antisymmetric`` the free constants are the ones giving
    a_{n-1} = -a_0 and rho_{n-1} = -rho_0; otherwise they are taken from
    ``free``.  The three vectors are solved one at a time: a single
    multi-column solve changes the last bits of the first.
    """
    table, basis = period.table, period.basis
    alt = (-1.0) ** np.arange(period.n)
    A = system_matrix(period)
    try:  # the period matrix is provably regular
        pa = np.linalg.solve(A, _moments(table, basis, pole_density(table.nodes, derived), alt))
        pr = np.linalg.solve(
            A, -_moments(table, basis, _g0_table(table, derived), alt * np.asarray(derived.lam))
        )
        h = np.linalg.solve(A, -period.moments[:, 0])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular solvability system: {exc}") from exc
    a0, rho0 = free.a0, free.rho0
    if free.antisymmetric:
        denom = 1.0 + h[-1]
        if abs(denom) < 1e-12:
            raise SolverError("antisymmetric constants are not determined")
        a0, rho0 = -pa[-1] / denom, -pr[-1] / denom
    # a zero free value leaves the particular solution as solved, -0.0 included
    a = np.concatenate(([a0], pa + a0 * h if a0 else pa))
    rho = np.concatenate(([rho0], pr + rho0 * h if rho0 else pr))
    return build_constants(a, rho, derived)


def boundedness_residuals(
    branch: SlitConfiguration,
    derived: DerivedConstants,
    constants: SolvabilityConstants,
    numerics: NumericsConfig = NumericsConfig(),
) -> dict:
    """Moment residuals of both boundedness conditions, freshly quadratured.

    Uses twice the configured node count, and the gap basis at that table's
    nodes, so the check is not the identical discretization the constants
    were solved on.  Residuals are reported raw and relative to the
    absolute-integrand scale of each moment.
    """
    n = branch.n
    table = slit_table(branch, 2 * numerics.N)
    basis = gap_basis(branch, table)
    lam = np.asarray(derived.lam)
    alt = (-1.0) ** np.arange(n)
    phi = constants.a[:, None] - pole_density(table.nodes, derived)
    dens = _g0_table(table, derived) + constants.rho_prime[:, None]
    res_a, scale_a, rel_a = moment_residuals(table, basis, phi, alt)
    res_r, scale_r, rel_r = moment_residuals(table, basis, dens, alt * lam)
    return {
        "a_residuals": res_a.tolist(),
        "rho_residuals": res_r.tolist(),
        "a_scales": scale_a.tolist(),
        "rho_scales": scale_r.tolist(),
        "a_relative": rel_a,
        "rho_relative": rel_r,
    }


# -- printed closed forms (cross-check targets) --------------------------------


def is_symmetric_pair(branch: SlitConfiguration) -> bool:
    """True for two slits mirror-symmetric about the origin."""
    if branch.n != 2:
        return False
    k = branch.endpoints
    scale = max(abs(v) for v in k)
    return (abs(k[0] + k[3]) <= _SYMMETRY_TOL * scale
            and abs(k[1] + k[2]) <= _SYMMETRY_TOL * scale)


def n2_closed_form_a(
    period: PeriodMatrix,
    derived: DerivedConstants,
    a0: float,
) -> np.ndarray:
    """Two slits: the scalar difference formula (mirror-symmetric pair)."""
    table = period.table
    j0, j1 = table.integrate(pole_density(table.nodes, derived))
    return np.array([a0, a0 - (j0 - j1) / period.entry(1, 1)])


def n2_closed_form_rho(
    period: PeriodMatrix,
    derived: DerivedConstants,
    rho0: float,
) -> np.ndarray:
    """Two slits: the scalar difference formula for rho."""
    table = period.table
    k0, k1 = np.asarray(derived.lam) * table.integrate(_g0_table(table, derived))
    return np.array([rho0, rho0 + (k0 - k1) / period.entry(1, 1)])


def n3_closed_form_a(
    period: PeriodMatrix,
    derived: DerivedConstants,
    a0: float,
) -> np.ndarray:
    """Three slits: explicit 2x2 elimination as printed."""
    I = period.entry
    table = period.table
    delta = I(1, 1) * I(2, 2) - I(1, 2) * I(2, 1)
    J = np.empty(3)
    for m in (1, 2):
        if derived.pole_at_infinity:
            J[m] = derived.c_double_prime * (
                I(m + 1, 0) - I(m + 1, 1) + I(m + 1, 2)
            ) - a0 * I(m, 0)
        else:
            density = pole_density(table.nodes, derived)
            parts = table.integrate(density * table.powers[m - 1])
            J[m] = parts[0] - parts[1] + parts[2] - a0 * I(m, 0)
    a1 = (J[2] * I(1, 2) - J[1] * I(2, 2)) / delta
    a2 = (J[2] * I(1, 1) - J[1] * I(2, 1)) / delta
    return np.array([a0, a1, a2])


def n3_closed_form_rho(
    period: PeriodMatrix,
    derived: DerivedConstants,
    rho0: float,
) -> np.ndarray:
    """Three slits: explicit 2x2 elimination for rho as printed."""
    I = period.entry
    table = period.table
    delta = I(1, 1) * I(2, 2) - I(1, 2) * I(2, 1)
    K = np.empty(3)
    for m in (1, 2):
        if derived.pole_at_infinity:
            K[m] = (
                sum(
                    (-1.0) ** j * derived.c_star[j] * derived.lam[j] * I(m + 1, j)
                    for j in range(3)
                )
                + rho0 * I(m, 0)
            )
        else:
            parts = np.asarray(derived.lam) * table.integrate(
                _g0_table(table, derived) * table.powers[m - 1]
            )
            K[m] = parts[0] - parts[1] + parts[2] + rho0 * I(m, 0)
    rho1 = (K[1] * I(2, 2) - K[2] * I(1, 2)) / delta
    rho2 = (K[1] * I(2, 1) - K[2] * I(1, 1)) / delta
    return np.array([rho0, rho1, rho2])
