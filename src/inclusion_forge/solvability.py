"""Period integrals and the linear systems fixing the constants a_j, rho_j.

Boundedness of the two surface solutions at the pair of infinite points
forces n-1 moment conditions each.  Rewritten over the slit tops with the
bank signs of q, both become small sign-alternating linear systems driven by
the period integrals

    I_mj = integral over slit j of  xi^(m-1) / |q(xi)| d xi  > 0.

Every moment is a Gauss-Chebyshev sum over one :class:`SlitTable` (the nodes
and weight factors of all slits), so each set of moments is one array
reduction.  The general solver covers any n >= 2; the two- and three-slit
closed forms are kept alongside as printed and cross-checked against it.
They sum their moments over the period matrix's table too, so the
cross-check tests the printed algebra against the general linear solve, not
a second quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch import BranchData, SlitTable, slit_table
from .model import DerivedConstants, NumericsConfig, SolverError, g0, pole_density

_SYMMETRY_TOL = 1e-12  # mirror pair: endpoint sums within this of the largest |endpoint|


@dataclass(frozen=True)
class PeriodMatrix:
    """Moments I_mj over the slit tops, rows m = 1..n, columns j = 0..n-1.

    Row n is one moment past the solvability range; it feeds the
    right-hand sides of the pole-at-infinity case.  ``table`` holds the
    nodes the moments were summed over; the right-hand sides of
    :func:`solve_a` and :func:`solve_rho` are summed over the same table.
    """

    I: np.ndarray
    table: SlitTable

    def __init__(self, I, table: SlitTable) -> None:
        arr = np.array(I, dtype=float)  # owned copy; frozen below
        arr.setflags(write=False)
        object.__setattr__(self, "I", arr)
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.I.shape[1]

    def entry(self, m: int, j: int) -> float:
        """I_mj with the 1-based moment index m used in the formulas."""
        return float(self.I[m - 1, j])


def _alternating(moments: np.ndarray, weights) -> np.ndarray:
    """sum_j weights_j * moments[..., j], the sign-alternating slit sums.

    Accumulated in slit order: the solvability systems amplify a change in
    the last digit of these sums by their condition number.
    """
    return np.add.accumulate(np.asarray(weights) * moments, axis=-1)[..., -1]


def _g0_table(table: SlitTable, derived: DerivedConstants) -> np.ndarray:
    """g0 of every slit at its nodes: shape (n, N)."""
    rows = np.arange(table.nodes.shape[0])[:, None]
    return g0(table.nodes, rows, derived)


def period_matrix(branch: BranchData, numerics: NumericsConfig = NumericsConfig()) -> PeriodMatrix:
    """All period moments up to row n; every entry is positive."""
    table = slit_table(branch, numerics.N)
    return PeriodMatrix(table.integrate(table.powers), table)


def system_matrix(period: PeriodMatrix) -> np.ndarray:
    """The (n-1)x(n-1) sign-alternating block (-1)^j I_mj, j, m = 1..n-1."""
    n = period.n
    return period.I[: n - 1, 1:] * (-1.0) ** np.arange(1, n)


def _solve_alternating(period: PeriodMatrix, rhs: np.ndarray) -> np.ndarray:
    A = system_matrix(period)
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:  # period matrix is provably regular
        raise SolverError(f"singular solvability system: {exc}") from exc


def solve_a(
    period: PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
    a0: float,
) -> np.ndarray:
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


def solve_rho(
    period: PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
    rho0: float,
) -> np.ndarray:
    """Constants rho_j making the second solution bounded, given free rho_0."""
    n = branch.n
    if n == 1:
        return np.array([rho0])
    table = period.table
    moments = table.integrate(_g0_table(table, derived) * table.powers[: n - 1])
    km = _alternating(moments, (-1.0) ** np.arange(n) * np.asarray(derived.lam))
    rhs = -(km + period.I[: n - 1, 0] * rho0)
    return np.concatenate(([rho0], _solve_alternating(period, rhs)))


@dataclass(frozen=True)
class SolvabilityConstants:
    """Solved constant vectors of both boundary-value problems."""

    a: np.ndarray
    rho: np.ndarray
    rho_prime: np.ndarray
    d_prime: np.ndarray

    def __init__(self, a, rho, rho_prime, d_prime) -> None:
        for name, value in (
            ("a", a), ("rho", rho), ("rho_prime", rho_prime), ("d_prime", d_prime)
        ):
            arr = np.array(value, dtype=float)  # owned copy; frozen below
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.a)


def build_constants(a, rho, derived: DerivedConstants) -> SolvabilityConstants:
    """Bundle a, rho with the derived per-slit offsets rho'_j and d'_j."""
    a = np.asarray(a, dtype=float)
    rho = np.asarray(rho, dtype=float)
    lam = np.asarray(derived.lam)
    rho_prime = rho / lam
    return SolvabilityConstants(a, rho, rho_prime, derived.beta0 - rho_prime)


def boundedness_residuals(
    branch: BranchData,
    derived: DerivedConstants,
    constants: SolvabilityConstants,
    numerics: NumericsConfig = NumericsConfig(),
) -> dict:
    """Moment residuals of both boundedness conditions, freshly quadratured.

    Uses twice the configured node count so the check is not the identical
    discretization the constants were solved on.  Residuals are reported
    raw and relative to the absolute-integrand scale of each moment.
    """
    n = branch.n
    table = slit_table(branch, 2 * numerics.N)
    lam = np.asarray(derived.lam)
    alt = (-1.0) ** np.arange(n)
    powers = table.powers[: n - 1]
    phi = (constants.a[:, None] - pole_density(table.nodes, derived)) * powers
    dens = (_g0_table(table, derived) + constants.rho_prime[:, None]) * powers
    res_a = _alternating(table.integrate(phi), alt)
    res_r = _alternating(table.integrate(dens), alt * lam)
    scale_a = _alternating(table.integrate(np.abs(phi)), np.ones(n))
    scale_r = _alternating(table.integrate(np.abs(dens)), np.abs(lam))
    floor = 1e-30
    rel_a = float(np.max(np.abs(res_a) / np.maximum(scale_a, floor), initial=0.0))
    rel_r = float(np.max(np.abs(res_r) / np.maximum(scale_r, floor), initial=0.0))
    return {
        "a_residuals": res_a.tolist(),
        "rho_residuals": res_r.tolist(),
        "a_scales": scale_a.tolist(),
        "rho_scales": scale_r.tolist(),
        "a_relative": rel_a,
        "rho_relative": rel_r,
    }


def antisymmetric_free_values(
    period: PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
) -> tuple[float, float]:
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


# -- printed closed forms (cross-check targets) --------------------------------


def is_symmetric_pair(branch: BranchData) -> bool:
    """True for two slits mirror-symmetric about the origin."""
    if branch.n != 2:
        return False
    k = branch.endpoints
    scale = max(abs(v) for v in k)
    return (abs(k[0] + k[3]) <= _SYMMETRY_TOL * scale
            and abs(k[1] + k[2]) <= _SYMMETRY_TOL * scale)


def n2_closed_form_a(
    period: PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
    a0: float,
) -> np.ndarray:
    """Two slits: the scalar difference formula (mirror-symmetric pair)."""
    table = period.table
    j0, j1 = table.integrate(pole_density(table.nodes, derived))
    return np.array([a0, a0 - (j0 - j1) / period.entry(1, 1)])


def n2_closed_form_rho(
    period: PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
    rho0: float,
) -> np.ndarray:
    """Two slits: the scalar difference formula for rho."""
    table = period.table
    k0, k1 = np.asarray(derived.lam) * table.integrate(_g0_table(table, derived))
    return np.array([rho0, rho0 + (k0 - k1) / period.entry(1, 1)])


def n2_symmetric_a(
    period: PeriodMatrix,
    branch: BranchData,
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
    branch: BranchData,
    derived: DerivedConstants,
) -> np.ndarray:
    """Antisymmetric rho pair for the origin-symmetric case (pole at 0)."""
    odd = period.table.integrate(1.0 / period.table.nodes)[1]
    rho1 = -derived.lam[0] * derived.c_star[0] * odd / period.entry(1, 1)
    return np.array([-rho1, rho1])


def n3_closed_form_a(
    period: PeriodMatrix,
    branch: BranchData,
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
    branch: BranchData,
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
