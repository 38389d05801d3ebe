"""Full solve orchestration: constants, profiles, and validity diagnostics.

``solve`` derives the loading constants (which validates the input), fixes
a_j and rho_j (or accepts overrides), traces every contour, and grades the
result:

* ``VALID``             both boundedness conditions hold to tolerance and
                        the contours are simple, pairwise disjoint, and not
                        collapsed;
* ``INVALID-UNBOUNDED`` a boundedness residual exceeds tolerance (the map
                        exists but grows at infinity, as with overridden
                        constants);
* ``INVALID-GEOMETRY``  contours intersect, touch, nest, or degenerate.

An invalid verdict is a result, not an error; contours are still emitted so
violated-condition configurations can be compared against solved ones.

A single inclusion is routed to the exact elliptic closed forms.  For two
and three inclusions the printed closed-form constants are evaluated next
to the general solver, from the same nodes but in the monomial moments
rather than the solver's gap basis, and a disagreement beyond the
cross-check tolerance aborts the run (it would mean the printed algebra and
the general linear solve diverged).  ``Diagnostics.solvability_cond`` is
the condition number of the system the general solver solved.

The slit boundary is evaluated once per solve: one ``SlitMap.banks`` pass at
the (n, P) bank grid gives the contours, and the Schwarz report reads the
same values at every traced vertex, slit endpoints included.  From four
slits on, that pass sums the other slits at K Chebyshev nodes per slit
rather than at the P targets wherever this sums fewer terms; K =
ceil(53 ln 2 / ln rho) for the Bernstein ellipse through the nearest other
slit, taken where the nearer gap is smallest against the half-length (see
:class:`~inclusion_forge.mapper.SlitMap`).  ``SolveResult.work`` reports the
terms the pass summed and the K it used.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import geometry, mapper, solvability
from .branch import BranchData
from .geometry import ContourProfile
from .model import (
    ConfigurationError,
    DerivedConstants,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    SolverError,
    derive_constants,
    g0,
    singular_part_omega,
)
from .solvability import SolvabilityConstants

VERDICT_VALID = "VALID"
VERDICT_UNBOUNDED = "INVALID-UNBOUNDED"
VERDICT_GEOMETRY = "INVALID-GEOMETRY"

_CROSS_CHECK_TOL = 1e-8

# keys of SolveResult.timings, in pipeline order
STAGES = (
    "moments", "constants", "residuals", "map_build", "tracing", "geometry", "schwarz",
)


@contextmanager
def _stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Add the wall time of the block to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] += time.perf_counter() - start


@dataclass(frozen=True)
class Diagnostics:
    """Everything the verdict is based on, JSON-serializable via to_dict.

    ``kept_length`` records work, not an invariant of the layout (see
    :meth:`~inclusion_forge.mapper.SlitMap.kept_lengths`).
    """

    verdict: str
    boundedness: dict
    schwarz: dict
    closure_errors: tuple[float, ...]
    solvability_cond: float | None
    truncation: dict
    kept_length: dict
    geometry: dict
    cross_check: dict
    tol_solve: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveResult:
    """The solved constants, the traced contours and what the verdict rests on.

    ``timings`` holds the wall time in seconds of each stage in ``STAGES``
    (0.0 for a stage the solve skipped), and ``work`` what the bank pass
    summed (:meth:`~inclusion_forge.mapper.SlitMap.bank_work`: its terms,
    counted over the density families that keep terms, and its
    interpolation nodes per slit, 0 and 0 for a single inclusion).  Both
    are kept out of ``diagnostics``, so that those stay a deterministic
    function of the input.
    """

    constants: SolvabilityConstants
    profiles: tuple[ContourProfile, ...]
    diagnostics: Diagnostics
    derived: DerivedConstants
    slit_map: mapper.SlitMap | None = field(repr=False, default=None)
    timings: dict[str, float] = field(repr=False, compare=False, default_factory=dict)
    work: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.diagnostics.verdict

    @property
    def valid(self) -> bool:
        return self.verdict == VERDICT_VALID


def _geometry_report(profiles: Sequence[ContourProfile]) -> tuple[dict, bool]:
    contacts = geometry.contacts(profiles)
    tests = [c["contours"] for c in contacts]
    degen = [p.degenerate for p in profiles]
    report = {
        "self_intersections": [[p.slit_index] * 2 in tests for p in profiles],
        "pairwise_disjoint": all(p == q for p, q in tests),
        "degenerate": degen,
        "signed_areas": [p.signed_area for p in profiles],
        "orientation": [geometry.traced_orientation(p) for p in profiles],
        "diameters": [p.diameter for p in profiles],
        # one record per failed test; empty when all passed
        "contacts": contacts,
    }
    return report, not contacts and not any(degen)


def _verdict(bounded_ok: bool, geometry_ok: bool) -> str:
    if not bounded_ok:
        return VERDICT_UNBOUNDED
    if not geometry_ok:
        return VERDICT_GEOMETRY
    return VERDICT_VALID


def _solve_n1(
    loading: Loading,
    materials: MaterialSet,
    derived: DerivedConstants,
    free: FreeParameters,
    numerics: NumericsConfig,
    timings: dict[str, float],
) -> SolveResult:
    with _stage(timings, "tracing"):
        grid = geometry.bank_parameter_grid(-1.0, 1.0, numerics.P)[None]
        omega = np.array([
            mapper.n1_slit_profile(grid, bank, loading, materials, free)
            for bank in (+1, -1)
        ])
        profiles = geometry.build_profiles(grid, omega)
    with _stage(timings, "geometry"):
        geo_report, geo_ok = _geometry_report(profiles)
    geo_report["ellipse_fit_residual"] = geometry.fit_ellipse(profiles[0].points)
    constants = solvability.build_constants(
        [free.a0], [free.rho0], derived
    )
    diag = Diagnostics(
        verdict=_verdict(True, geo_ok),
        boundedness={
            "a_residuals": [], "rho_residuals": [],
            "a_scales": [], "rho_scales": [],
            "a_relative": 0.0, "rho_relative": 0.0,
        },
        schwarz={"imF_max_dev": 0.0, "omega_max_dev": 0.0},
        closure_errors=tuple(p.closure_error for p in profiles),
        solvability_cond=None,
        truncation={"phi": 0.0, "g0_rho": 0.0, "g1_weighted": 0.0},
        kept_length={"phi": 0, "g0_rho": 0, "g1_weighted": 0},
        geometry=geo_report,
        cross_check={"applied": False, "max_mismatch": 0.0},
        tol_solve=numerics.tol_solve,
    )
    work = {"bank_terms": 0, "bank_nodes": 0}
    return SolveResult(constants, tuple(profiles), diag, derived, None, timings, work)


def _closed_form_cross_check(
    period: solvability.PeriodMatrix,
    branch: BranchData,
    derived: DerivedConstants,
    constants: SolvabilityConstants,
) -> dict:
    """Compare the general-path constants with the printed closed forms."""
    n = branch.n
    a, rho = constants.a, constants.rho
    candidates: list[np.ndarray] = []
    if n == 2 and solvability.is_symmetric_pair(branch):
        candidates.append(solvability.n2_closed_form_a(period, derived, a[0]) - a)
        candidates.append(solvability.n2_closed_form_rho(period, derived, rho[0]) - rho)
    elif n == 3:
        candidates.append(solvability.n3_closed_form_a(period, derived, a[0]) - a)
        candidates.append(solvability.n3_closed_form_rho(period, derived, rho[0]) - rho)
    if not candidates:
        return {"applied": False, "max_mismatch": 0.0}
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(rho).max()))
    mismatch = max(float(np.abs(c).max()) for c in candidates) / scale
    if mismatch > _CROSS_CHECK_TOL:
        raise SolverError(
            f"closed-form constants disagree with the general path by {mismatch:.3e}"
        )
    return {"applied": True, "max_mismatch": mismatch}


def _schwarz_boundary_report(
    boundary: mapper.BoundaryPass,
    grid: np.ndarray,
    derived: DerivedConstants,
    constants: SolvabilityConstants,
) -> dict:
    """Residuals of both boundary conditions at every traced vertex.

    ``boundary`` is the pass the contours were traced from, at the (n, P)
    bank parameters ``grid``, endpoints included.
    """
    rows = np.arange(len(grid))[:, None]
    sign = np.array([1.0, -1.0])[:, None, None] * (-1.0) ** rows
    dev_f = float(np.abs(boundary.F.imag - constants.a[rows]).max())
    om0 = boundary.omega - singular_part_omega(grid, derived) - derived.gamma
    lhs = (1j * derived.tau_bar * om0).imag
    rhs = (
        np.asarray(derived.lam)[rows]
        * (g0(grid, rows, derived) + sign * boundary.g1)
        + constants.rho[rows]
    )
    dev_w = float(np.abs(lhs - rhs).max())
    return {"imF_max_dev": dev_f, "omega_max_dev": dev_w}


def request_violations(
    cfg: SlitConfiguration,
    free: FreeParameters,
    override_a: Sequence[float] | None = None,
    override_rho: Sequence[float] | None = None,
) -> list[str]:
    """What :func:`solve` refuses beyond :func:`~inclusion_forge.model.validate`.

    Each override must hold n finite numbers.  A single inclusion takes
    none: its elliptic closed forms solve no constants to replace.  Nor
    does it take ``free.antisymmetric``, which needs a second slit to
    mirror.  Returns one message per violated rule, empty when the request
    is runnable; the ``validate`` command reports the same list.
    """
    bad = []
    for name, values in (("a", override_a), ("rho", override_rho)):
        if values is None:
            continue
        v = np.asarray(values, dtype=float)
        if v.shape != (cfg.n,) or not np.isfinite(v).all():
            bad.append(f"override {name} must hold {cfg.n} finite numbers, got {v.tolist()}")
    if cfg.n == 1 and (override_a is not None or override_rho is not None):
        bad.append("overrides need n >= 2: a single inclusion has no solved constants")
    if cfg.n == 1 and free.antisymmetric:
        bad.append("antisymmetric selection needs at least two slits")
    return bad


def solve(
    cfg: SlitConfiguration,
    loading: Loading,
    materials: MaterialSet,
    free: FreeParameters = FreeParameters(),
    numerics: NumericsConfig = NumericsConfig(),
    override_a: Sequence[float] | None = None,
    override_rho: Sequence[float] | None = None,
) -> SolveResult:
    """Run the full construction and grade the outcome.

    ``override_a``/``override_rho`` replace the solved constant vectors
    (letting deliberately violated configurations be traced); the
    boundedness residuals then report the violation and the verdict turns
    INVALID-UNBOUNDED.  A request that breaks a rule of
    :func:`request_violations` raises ``ConfigurationError``.
    """
    bad = request_violations(cfg, free, override_a, override_rho)
    if bad:
        raise ConfigurationError("; ".join(bad))
    derived = derive_constants(loading, materials, cfg, free)
    timings = dict.fromkeys(STAGES, 0.0)
    if cfg.n == 1:
        return _solve_n1(loading, materials, derived, free, numerics, timings)

    branch = BranchData(cfg.endpoints)
    with _stage(timings, "moments"):
        period = solvability.period_matrix(branch, numerics)
        cond = float(np.linalg.cond(solvability.system_matrix(period)))

    with _stage(timings, "constants"):
        constants = solvability.solve_constants(period, derived, free)
        cross = _closed_form_cross_check(period, branch, derived, constants)

    if override_a is not None or override_rho is not None:
        constants = solvability.build_constants(
            constants.a if override_a is None else override_a,
            constants.rho if override_rho is None else override_rho,
            derived,
        )
    with _stage(timings, "residuals"):
        bounded = solvability.boundedness_residuals(branch, derived, constants, numerics)
    bounded_ok = (
        max(bounded["a_relative"], bounded["rho_relative"]) <= numerics.tol_solve
    )

    with _stage(timings, "map_build"):
        sm = mapper.SlitMap(branch, derived, constants, numerics, period)
    with _stage(timings, "tracing"):
        ends = np.reshape(branch.endpoints, (branch.n, 2))
        grid = geometry.bank_parameter_grid(ends[:, :1], ends[:, 1:], numerics.P)
        boundary = sm.banks(grid)
        profiles = geometry.build_profiles(grid, boundary.omega)
    with _stage(timings, "geometry"):
        geo_report, geo_ok = _geometry_report(profiles)
    with _stage(timings, "schwarz"):
        schwarz = _schwarz_boundary_report(boundary, grid, derived, constants)
    # the boundary-route residuals are exact by construction; they still
    # gate the verdict so an implementation inconsistency cannot pass
    scale = max(max(p.diameter for p in profiles), 1e-300)
    residuals_ok = (
        max(schwarz["imF_max_dev"], schwarz["omega_max_dev"]) <= numerics.tol_solve
        and max(p.closure_error for p in profiles) <= numerics.tol_solve * scale
    )
    bounded_ok = bounded_ok and residuals_ok

    diag = Diagnostics(
        verdict=_verdict(bounded_ok, geo_ok),
        boundedness=bounded,
        schwarz=schwarz,
        closure_errors=tuple(p.closure_error for p in profiles),
        solvability_cond=cond,
        truncation=sm.truncation_indicators(),
        kept_length=sm.kept_lengths(),
        geometry=geo_report,
        cross_check=cross,
        tol_solve=numerics.tol_solve,
    )
    work = sm.bank_work(grid.shape[-1])
    return SolveResult(constants, tuple(profiles), diag, derived, sm, timings, work)
