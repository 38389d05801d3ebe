"""Domain types, derived loading/material constants, and configuration checks.

All value objects are immutable after construction and safe to share across
threads.  Constructors only reject structural nonsense (wrong lengths,
non-finite numbers); physical admissibility is reported by :func:`validate`
and enforced by :func:`derive_constants`, so that a broken configuration can
still be loaded and diagnosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import like_input


class ConfigurationError(ValueError):
    """Input data violates an invariant required by the construction."""


class EvaluationError(ValueError):
    """A function was evaluated outside its domain (e.g. on a slit)."""


class SolverError(RuntimeError):
    """A numerical stage failed or produced inconsistent results."""


class _AtInfinity:
    """Marker for a pole preimage at the infinite point."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AT_INFINITY"


AT_INFINITY = _AtInfinity()
# the largest N, M and P: one float64 per node or sample on a slit is 16 GiB past it,
# and numpy refuses the arrays of far larger counts outright
_COUNT_MAX = 2**31 - 1


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConfigurationError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Loading:
    """Interior and far-field antiplane shear constants.

    ``tau1``/``tau2`` are the uniform stresses inside every inclusion,
    ``tau1_inf``/``tau2_inf`` the stresses at infinity, ``mu`` the matrix
    shear modulus.  All formulas depend only on the ratios tau/mu, so the
    default ``mu=1`` means stresses are given directly as ratios.
    """

    tau1: float
    tau2: float
    tau1_inf: float
    tau2_inf: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(
            "loading", self.tau1, self.tau2, self.tau1_inf, self.tau2_inf, self.mu
        )

    @property
    def tau(self) -> complex:
        return complex(self.tau1, self.tau2)

    @property
    def tau_bar(self) -> complex:
        return complex(self.tau1, -self.tau2)

    @property
    def tau_inf(self) -> complex:
        return complex(self.tau1_inf, self.tau2_inf)

    @property
    def tau_inf_bar(self) -> complex:
        return complex(self.tau1_inf, -self.tau2_inf)


@dataclass(frozen=True)
class MaterialSet:
    """Inclusion/matrix shear-modulus ratios kappa_j = mu_j / mu.

    Both kappa < 1 (soft inclusions) and kappa > 1 (stiff inclusions) are
    admissible; kappa = 1 makes the stiffness contrast lambda_j singular and
    is rejected at derivation time.
    """

    kappa: tuple[float, ...]

    def __init__(self, kappa) -> None:
        object.__setattr__(self, "kappa", tuple(float(k) for k in kappa))
        _require_finite("kappa", *self.kappa)

    @property
    def n(self) -> int:
        return len(self.kappa)

    def lambda_tilde(self) -> tuple[float, ...]:
        """Dimensionless contrast factors kappa_j / (1 - kappa_j)."""
        return tuple(k / (1.0 - k) for k in self.kappa)

    def lam(self, mu: float) -> tuple[float, ...]:
        """Stress-scaled contrast factors mu * kappa_j / (1 - kappa_j)."""
        return tuple(mu * t for t in self.lambda_tilde())


@dataclass(frozen=True)
class SlitConfiguration:
    """The n collinear parametric slits and the preimage of infinity.

    ``endpoints`` is the increasing sequence k_0 < ... < k_{2n-1}; slit j is
    the two-sided segment [k_{2j}, k_{2j+1}].  The endpoints are the branch
    points of the square-root branch q (:mod:`inclusion_forge.branch`), and
    this type also carries what they alone determine: the gap midpoints,
    their node polynomial and Lagrange basis, and the Bernstein parameter of
    each slit.  ``zeta_inf`` is the preimage of the physical infinite point:
    a finite complex number off every closed slit, or :data:`AT_INFINITY`.
    """

    endpoints: tuple[float, ...]
    zeta_inf: complex | _AtInfinity = AT_INFINITY

    def __init__(self, endpoints, zeta_inf=AT_INFINITY) -> None:
        flat: list[float] = []
        for item in endpoints:
            if isinstance(item, (tuple, list)):
                flat.extend(float(v) for v in item)
            else:
                flat.append(float(item))
        object.__setattr__(self, "endpoints", tuple(flat))
        _require_finite("endpoints", *flat)
        if len(flat) < 2 or len(flat) % 2 != 0:
            raise ConfigurationError(
                f"need an even number >= 2 of slit endpoints, got {len(flat)}"
            )
        if isinstance(zeta_inf, _AtInfinity):
            object.__setattr__(self, "zeta_inf", AT_INFINITY)
        else:
            z = complex(zeta_inf)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ConfigurationError("finite zeta_inf must have finite parts")
            object.__setattr__(self, "zeta_inf", z)

    @property
    def n(self) -> int:
        return len(self.endpoints) // 2

    @property
    def slits(self) -> tuple[tuple[float, float], ...]:
        e = self.endpoints
        return tuple((e[2 * j], e[2 * j + 1]) for j in range(self.n))

    def slit(self, j: int) -> tuple[float, float]:
        return self.endpoints[2 * j], self.endpoints[2 * j + 1]

    @property
    def gaps(self) -> np.ndarray:
        """The n - 1 gap midpoints g_k, each halfway between neighbouring slits."""
        e = np.reshape(self.endpoints, (self.n, 2))
        return 0.5 * (e[1:, 0] + e[:-1, 1])

    def omega(self, x):
        """omega(x) = prod_k (x - g_k), multiplied in gap order (1 for one slit)."""
        out = np.ones_like(x) if self.n == 1 else x - self.gaps[0]
        for node in self.gaps[1:]:
            out *= x - node
        return out

    def lagrange(self, x) -> np.ndarray:
        """L_k(x) = omega(x) / ((x - g_k) omega'(g_k)), 1 at g_k and 0 at the other g_j.

        The result has shape (n - 1,) + x.shape.
        """
        x, g = np.asarray(x, dtype=float), self.gaps
        diff = g[:, None] - g
        np.fill_diagonal(diff, 1.0)  # the product of row k is omega'(g_k)
        shape = (-1,) + (1,) * x.ndim
        denom = (x - g.reshape(shape)) * diff.prod(axis=1).reshape(shape)
        # at x = g_k the quotient is 0 / 0, and L_k is 1
        return np.divide(self.omega(x), denom, out=np.ones_like(denom), where=denom != 0.0)

    @property
    def log_bernstein(self) -> np.ndarray:
        """ln rho_e of each slit: the Bernstein parameter of its nearest other endpoint.

        On slit m of half-length h the nearest singularity of a sum over the
        other slits is the endpoint one gap g away, at x = 1 + g / h in the
        mapped variable, so Chebyshev interpolants of it on the slit converge
        like rho_e^-K in the Bernstein ellipse of rho_e = x + sqrt(x^2 - 1).
        """
        lo, hi = np.reshape(self.endpoints, (self.n, 2)).T
        widths = lo[1:] - hi[:-1]
        u = np.minimum(np.append(np.inf, widths), np.append(widths, np.inf)) / (0.5 * (hi - lo))
        return np.log1p(u + np.sqrt(u * (2.0 + u)))

    @property
    def pole_at_infinity(self) -> bool:
        return isinstance(self.zeta_inf, _AtInfinity)

    def on_any_slit(self, z: complex) -> bool:
        """True when z lies on a closed slit."""
        if z.imag != 0:
            return False
        return any(a <= z.real <= b for a, b in self.slits)


@dataclass(frozen=True)
class FreeParameters:
    """Free real/complex constants of the two boundary-value problems.

    ``a0`` and ``rho0`` are the free constants of the first and second
    problem, ``c_m1`` the complex scaling of the map's principal part,
    ``gamma`` a global translation, ``beta0`` a real offset that only shifts
    the unobservable displacement constants.  With ``antisymmetric`` set,
    ``a0`` and ``rho0`` are instead chosen so that the solved constants come
    out antisymmetric (a_{n-1} = -a_0, rho_{n-1} = -rho_0), which realizes
    the mirror-symmetric sample configurations.
    """

    a0: float = 0.0
    rho0: float = 0.0
    c_m1: complex = 1.0 + 0.0j
    gamma: complex = 0.0 + 0.0j
    beta0: float = 0.0
    antisymmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_m1", complex(self.c_m1))
        object.__setattr__(self, "gamma", complex(self.gamma))
        for name in ("a0", "rho0", "beta0"):
            _require_finite(name, getattr(self, name))
        for name in ("c_m1", "gamma"):
            value = getattr(self, name)
            _require_finite(name, value.real, value.imag)
        if self.c_m1 == 0:
            raise ConfigurationError("scaling constant c_m1 must be nonzero")


@dataclass(frozen=True)
class NumericsConfig:
    """Quadrature resolution and diagnostic thresholds."""

    N: int = 64
    M: int = 64
    P: int = 200
    tol_solve: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("N", "M", "P"):
            if getattr(self, name) > _COUNT_MAX:
                raise ConfigurationError(f"{name} must be at most 2^31 - 1 = {_COUNT_MAX}")
        if self.N < 8:
            raise ConfigurationError("node count N must be >= 8")
        if self.M < 4:
            raise ConfigurationError("truncation order M must be >= 4")
        if self.M > self.N:
            raise ConfigurationError("truncation order M must not exceed N")
        if self.P < 16:
            raise ConfigurationError("contour sample count P must be >= 16")
        _require_finite("tol_solve", self.tol_solve)
        if not self.tol_solve > 0:
            raise ConfigurationError("tol_solve must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """Everything the map formulas need, precomputed from the inputs.

    ``c`` is the pole strength of the auxiliary function, ``e[j]`` the
    complex per-inclusion density constants whose real parts are ``c_star``,
    ``lam`` the stiffness contrast vector (``loading.mu`` times
    :meth:`MaterialSet.lambda_tilde`).  ``zeta_inf`` is ``None`` when the
    pole preimage sits at infinity.
    """

    c: complex
    c_double_prime: float
    e: tuple[complex, ...]
    c_star: tuple[float, ...]
    lam: tuple[float, ...]
    tau_bar: complex
    zeta_inf: complex | None
    c_m1: complex
    gamma: complex
    beta0: float

    @property
    def pole_at_infinity(self) -> bool:
        return self.zeta_inf is None


@dataclass(frozen=True)
class ValidationReport:
    """Violated invariants (fatal) and convention warnings (non-fatal)."""

    violations: tuple[str, ...] = field(default=())
    warnings: tuple[str, ...] = field(default=())

    def __init__(self, violations=(), warnings=()) -> None:
        object.__setattr__(self, "violations", tuple(violations))
        object.__setattr__(self, "warnings", tuple(warnings))

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(
    cfg: SlitConfiguration,
    loading: Loading,
    materials: MaterialSet,
) -> ValidationReport:
    """Collect every violated invariant of a run configuration.

    An empty report means the configuration is runnable.  Nothing is raised;
    broken inputs produce entries instead so callers can show all problems
    at once.
    """
    bad: list[str] = []
    warn: list[str] = []
    n = cfg.n
    e = cfg.endpoints

    if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
        bad.append(f"slit endpoints must be strictly increasing, got {e}")
    if loading.mu <= 0:
        bad.append(f"shear modulus mu must be positive, got {loading.mu}")
    if loading.tau1 == 0.0 and loading.tau2 == 0.0:
        bad.append("interior stress (tau1, tau2) must not vanish")
    if materials.n != n:
        bad.append(f"kappa has {materials.n} entries but there are {n} slits")
    for j, k in enumerate(materials.kappa):
        if k <= 0:
            bad.append(f"kappa[{j}] = {k} must be positive")
        elif k == 1.0:
            bad.append(f"kappa[{j}] = 1 makes the contrast factor singular")

    if not cfg.pole_at_infinity:
        z = cfg.zeta_inf
        if cfg.on_any_slit(z):
            bad.append(f"zeta_inf = {z} lies on a slit")

    if n == 1:
        if e != (-1.0, 1.0):
            bad.append("a single inclusion requires the slit [-1, 1]")
        if not cfg.pole_at_infinity:
            bad.append("a single inclusion requires zeta_inf at infinity")
    elif n == 2:
        if cfg.pole_at_infinity:
            bad.append("two inclusions require a finite zeta_inf")
        else:
            z = cfg.zeta_inf
            if z.imag != 0.0:
                bad.append(f"zeta_inf = {z} must be real for two inclusions")
            elif not (e[1] < z.real < e[2]):
                bad.append(
                    f"zeta_inf = {z.real} must lie in the open gap "
                    f"({e[1]}, {e[2]}) between the two slits"
                )
    elif n >= 4 and cfg.pole_at_infinity:
        bad.append(f"n = {n} slits require a finite zeta_inf")

    if len(e) >= 2 and (e[0] != -1.0 or e[-1] != 1.0):
        warn.append(
            f"endpoints span [{e[0]}, {e[-1]}] instead of the conventional "
            "[-1, 1]; formulas do not require the normalization"
        )

    return ValidationReport(bad, warn)


def derive_constants(
    loading: Loading,
    materials: MaterialSet,
    cfg: SlitConfiguration,
    free: FreeParameters,
) -> DerivedConstants:
    """Compute the pole strength and per-inclusion density constants.

    Raises :class:`ConfigurationError` on any violated invariant; use
    :func:`validate` first for a full report.
    """
    report = validate(cfg, loading, materials)
    if not report.ok:
        raise ConfigurationError("; ".join(report.violations))

    mu = loading.mu
    tau_bar = loading.tau_bar
    c = (loading.tau_inf_bar - tau_bar) * free.c_m1 / mu
    lam = materials.lam(mu)
    # e_j = c_{-1} (tau_bar_inf / mu - tau_bar / mu_j), with mu_j = kappa_j mu
    e = tuple(
        free.c_m1 * (loading.tau_inf_bar - tau_bar / k) / mu for k in materials.kappa
    )
    c_star = tuple(v.real for v in e)
    zeta_inf = None if cfg.pole_at_infinity else complex(cfg.zeta_inf)
    return DerivedConstants(
        c=c,
        c_double_prime=c.imag,
        e=e,
        c_star=c_star,
        lam=lam,
        tau_bar=tau_bar,
        zeta_inf=zeta_inf,
        c_m1=free.c_m1,
        gamma=free.gamma,
        beta0=free.beta0,
    )


def pole_density(xi, derived: DerivedConstants):
    """Imaginary part of the separated singular term on the real axis.

    Returns Im(c / (xi - zeta_inf)) for a finite pole preimage and
    c'' * xi for a pole preimage at infinity; this is the inhomogeneity the
    first boundary-value problem subtracts from the constants a_j.
    """
    xi = np.asarray(xi, dtype=float)
    if derived.pole_at_infinity:
        return derived.c_double_prime * xi
    return (derived.c / (xi - derived.zeta_inf)).imag


def g0(xi, j, derived: DerivedConstants):
    """Density constant term of the second problem on slit j.

    Re(e_j / (xi - zeta_inf)) for a finite pole preimage, c_star_j * xi for
    the preimage at infinity; e_j carries the per-inclusion modulus, so
    configurations with unequal stiffness ratios get per-slit densities.
    ``j`` is a slit index or an integer array broadcasting against xi.
    """
    x = np.asarray(xi, dtype=float)
    if derived.pole_at_infinity:
        out = np.asarray(derived.c_star)[j] * x
    else:
        out = (np.asarray(derived.e)[j] / (x - derived.zeta_inf)).real
    return like_input(out, xi)


def singular_part_F(zeta, derived: DerivedConstants):
    """Prescribed singular term of the auxiliary function F."""
    zeta = np.asarray(zeta, dtype=complex)
    if derived.pole_at_infinity:
        return derived.c * zeta
    return derived.c / (zeta - derived.zeta_inf)


def singular_part_omega(zeta, derived: DerivedConstants):
    """Prescribed singular term of the conformal map omega."""
    zeta = np.asarray(zeta, dtype=complex)
    if derived.pole_at_infinity:
        return derived.c_m1 * zeta
    return derived.c_m1 / (zeta - derived.zeta_inf)
