"""Full solve orchestration: constants, profiles, and validity diagnostics.

``solve`` derives the loading constants (which validates the input), fixes
a_j and rho_j (or accepts overrides), traces every contour, and grades the
result (constants that are not finite abort the run before any gate):

* ``VALID``             every gate passed: both boundedness conditions hold
                        to tolerance and the contours are simple, pairwise
                        disjoint, and not collapsed;
* ``INVALID-UNBOUNDED`` a boundedness, Schwarz or closure gate failed (the
                        map exists but grows at infinity, as with overridden
                        constants);
* ``INVALID-GEOMETRY``  only a geometry gate failed: contours intersect,
                        touch, nest, or degenerate (at every n).

Each gate is one record of ``Diagnostics.gates`` (value, threshold, unit,
passed), filled alike for one inclusion and for many, and the verdict is
read from that record alone (:func:`_verdict`); it is logged at INFO with
the gates that failed.  An invalid verdict is a result, not an error;
contours are still emitted so violated-condition configurations can be
compared against solved ones.

Every n takes the same stages; one slit, whose constants are the free a_0
and rho_0, has no moment system and no ``Diagnostics.solvability_cond``.
The printed closed forms check the general path: the traced contour of one
slit, and the solved constants of a mirror-symmetric pair and of three
slits, evaluated from the same nodes but in the monomial moments rather
than the solver's gap basis.  A disagreement beyond the cross-check
tolerance aborts the run (it would mean the printed algebra and the general
construction diverged).

The slit boundary is evaluated once per solve: one ``SlitMap.banks`` pass at
the (n, P) bank grid gives the contours, and the Schwarz residuals read the
same values at every traced vertex, slit endpoints included.  From four
slits on, that pass sums the other slits at K Chebyshev nodes per slit
rather than at the P targets wherever this sums fewer terms; K =
ceil(53 ln 2 / ln rho) for the Bernstein ellipse through the nearest other
slit, taken where the nearer gap is smallest against the half-length (see
:class:`~inclusion_forge.mapper.SlitMap`).  ``SolveResult.work`` reports the
terms the pass summed and the K it used.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import geometry, mapper, solvability
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
    pole_density,
    singular_part_omega,
)
from .solvability import SolvabilityConstants

VERDICT_VALID = "VALID"
VERDICT_UNBOUNDED = "INVALID-UNBOUNDED"
VERDICT_GEOMETRY = "INVALID-GEOMETRY"

# every gate of Diagnostics.gates and the verdict its failure gives, in the order
# the verdict reads them
_GATE_VERDICTS = {
    "boundedness.a": VERDICT_UNBOUNDED,
    "boundedness.rho": VERDICT_UNBOUNDED,
    "schwarz.imF": VERDICT_UNBOUNDED,
    "schwarz.omega": VERDICT_UNBOUNDED,
    "closure": VERDICT_UNBOUNDED,
    "geometry.contacts": VERDICT_GEOMETRY,
    "geometry.degenerate": VERDICT_GEOMETRY,
}

_CROSS_CHECK_TOL = 1e-8

log = logging.getLogger(__name__)

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

    ``gates`` maps each gate name of ``_GATE_VERDICTS`` to its record: the
    ``value`` measured, the ``threshold`` it must not exceed, the ``unit``
    both are in, and whether it ``passed``.  The verdict is read from it
    alone, and no other key repeats what it holds.  ``kept_length`` records
    work, not an invariant of the layout (see
    :meth:`~inclusion_forge.mapper.SlitMap.kept_lengths`).
    """

    verdict: str
    gates: dict
    boundedness: dict
    closure_errors: tuple[float, ...]
    solvability_cond: float | None
    truncation: dict
    kept_length: dict
    geometry: dict
    cross_check: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def failed_gates(self) -> list[str]:
        """The names of the gates that failed, in the order the verdict reads them."""
        return [name for name, gate in self.gates.items() if not gate["passed"]]


@dataclass(frozen=True)
class SolveResult:
    """The solved constants, the traced contours and what the verdict rests on.

    ``timings`` holds the wall time in seconds of each stage in ``STAGES``
    (0.0 for a stage the solve skipped), and ``work`` what the bank pass
    summed (:meth:`~inclusion_forge.mapper.SlitMap.bank_work`: its terms,
    counted over the density families that keep terms, and its
    interpolation nodes per slit).  Both are kept out of ``diagnostics``,
    so that those stay a deterministic function of the input.
    """

    constants: SolvabilityConstants
    profiles: tuple[ContourProfile, ...]
    diagnostics: Diagnostics
    derived: DerivedConstants
    slit_map: mapper.SlitMap = field(repr=False)
    timings: dict[str, float] = field(repr=False, compare=False, default_factory=dict)
    work: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.diagnostics.verdict

    @property
    def valid(self) -> bool:
        return self.verdict == VERDICT_VALID


def _geometry_report(profiles: Sequence[ContourProfile]) -> dict:
    return {
        "degenerate": [p.degenerate for p in profiles],
        "signed_areas": [p.signed_area for p in profiles],
        "orientation": [geometry.traced_orientation(p) for p in profiles],
        "diameters": [p.diameter for p in profiles],
        # one record per failed test, self-crossings first; empty when all passed
        "contacts": geometry.contacts(profiles),
    }


def _verdict(gates: dict) -> str:
    """The verdict of the first failing gate in ``_GATE_VERDICTS`` order; VALID where none failed."""
    failed = (_GATE_VERDICTS[name] for name in _GATE_VERDICTS if not gates[name]["passed"])
    return next(failed, VERDICT_VALID)


def _graded(
    profiles: Sequence[ContourProfile],
    geo_report: dict,
    boundedness: dict,
    schwarz: tuple[float, float],
    tol: float,
    **rest,
) -> Diagnostics:
    """The diagnostics of a traced solve: its gate record, and the verdict read from it.

    ``schwarz`` holds the residuals of :func:`_schwarz_residuals`, and
    ``tol``, ``tol_solve``, is the threshold of each tolerance gate.  A gate
    passes where its value does not exceed its threshold; a NaN value
    fails.  The Schwarz residuals are exact by construction; they still
    gate the verdict so an implementation inconsistency cannot pass.
    """
    relative = "relative to the moment's absolute-integrand scale"
    terms = "relative to the largest modulus of the terms it sums at the traced vertices"
    # np.max, not max: a NaN diameter or closure error propagates to its gate
    diameter = float(np.maximum(np.max([p.diameter for p in profiles]), 1e-300))
    rows = (
        ("boundedness.a", boundedness["a_relative"], tol, relative),
        ("boundedness.rho", boundedness["rho_relative"], tol, relative),
        ("schwarz.imF", schwarz[0], tol, terms),
        ("schwarz.omega", schwarz[1], tol, terms),
        ("closure", float(np.max([p.closure_error for p in profiles])), tol * diameter,
         "absolute; the threshold is tol_solve times the largest contour diameter"),
        ("geometry.contacts", len(geo_report["contacts"]), 0, "contact records"),
        ("geometry.degenerate", sum(geo_report["degenerate"]), 0, "degenerate contours"),
    )
    gates = {
        name: {"value": value, "threshold": threshold, "unit": unit, "passed": bool(value <= threshold)}
        for name, value, threshold, unit in rows
    }
    verdict = _verdict(gates)
    if log.isEnabledFor(logging.INFO):
        failed = [
            f"{name} {g['value']:.3g} > {g['threshold']:.3g} ({g['unit']})"
            for name, g in gates.items() if not g["passed"]
        ]
        log.info("verdict %s; failed gates: %s", verdict, "; ".join(failed) or "none")
    return Diagnostics(
        verdict=verdict,
        gates=gates,
        boundedness=boundedness,
        closure_errors=tuple(p.closure_error for p in profiles),
        geometry=geo_report,
        **rest,
    )


def _closed_form_cross_check(
    period: solvability.PeriodMatrix | None,
    cfg: SlitConfiguration,
    derived: DerivedConstants,
    solved: SolvabilityConstants,
    grid: np.ndarray,
    omega: np.ndarray,
    printed_n1: Callable[[np.ndarray, int], np.ndarray],
) -> dict:
    """Compare the general path with the printed closed forms; raise unless within ``_CROSS_CHECK_TOL``.

    One slit: the traced banks ``omega`` at ``grid`` against the printed
    profile ``printed_n1(grid, bank)``, relative to its largest |omega|.  A
    mirror-symmetric pair and three slits: the ``solved`` constants against
    the printed ones, relative to the largest of 1, |a_j| and |rho_j|.
    """
    n, a, rho = cfg.n, solved.a, solved.rho
    size = float(np.max([1.0, np.abs(a).max(), np.abs(rho).max()]))  # np.max propagates a NaN; max may not
    if n == 1:
        printed = np.array([printed_n1(grid, bank) for bank in (+1, -1)])
        candidates, size = [omega - printed], float(np.abs(printed).max())
    elif n == 2 and solvability.is_symmetric_pair(cfg):
        candidates = [
            solvability.n2_closed_form_a(period, derived, a[0]) - a,
            solvability.n2_closed_form_rho(period, derived, rho[0]) - rho,
        ]
    elif n == 3:
        candidates = [
            solvability.n3_closed_form_a(period, derived, a[0]) - a,
            solvability.n3_closed_form_rho(period, derived, rho[0]) - rho,
        ]
    else:
        return {"applied": False, "max_mismatch": 0.0}
    mismatch = float(np.max([np.abs(c).max() for c in candidates])) / size
    if not mismatch <= _CROSS_CHECK_TOL:  # as at the gates, a NaN mismatch fails
        raise SolverError(f"the printed closed forms disagree with the general path by {mismatch:.3e}")
    return {"applied": True, "max_mismatch": mismatch}


def _schwarz_residuals(
    boundary: mapper.BoundaryPass,
    grid: np.ndarray,
    derived: DerivedConstants,
    constants: SolvabilityConstants,
) -> tuple[float, float]:
    """Residuals of both boundary conditions at every traced vertex, each relative to the terms it sums.

    ``boundary`` is the pass the contours were traced from, at the (n, P)
    bank parameters ``grid``, endpoints included.  Im F = a_j sums the pole
    density and a_j less it; Im(i tau_bar omega_0) = lambda_j (g0 +- g1) +
    rho_j, omega_0 = omega - singular part - gamma.  Relative to its terms,
    neither residual moves with a scale of the input such as ``loading.mu``.
    """
    rows = np.arange(len(grid))[:, None]
    sign = np.array([1.0, -1.0])[:, None, None] * (-1.0) ** rows
    a, pole = constants.a[rows], pole_density(grid, derived)
    tau_om0 = derived.tau_bar * (boundary.omega - singular_part_omega(grid, derived) - derived.gamma)
    lam, g_0, rho = np.asarray(derived.lam)[rows], g0(grid, rows, derived), constants.rho[rows]
    checks = (  # (the residual, its terms)
        (boundary.F.imag - a, (pole, a - pole)),
        ((1j * tau_om0).imag - (lam * (g_0 + sign * boundary.g1) + rho),
         (tau_om0, lam * g_0, lam * boundary.g1, rho)),
    )
    # an exact 0 reads 0 at any scale; np.max, not max, so a NaN term stays NaN
    devs = [(np.abs(residual).max(), np.max([np.abs(t).max() for t in terms])) for residual, terms in checks]
    return tuple(0.0 if dev == 0.0 else float(dev / scale) if scale > 0.0 else np.inf for dev, scale in devs)


def _refuse_non_finite(**values) -> None:
    """Raise ``SolverError`` naming each of ``values`` not finite: a verdict on their NaN would mean nothing."""
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise SolverError(f"the constants {', '.join(bad)} are not finite")


def request_violations(
    cfg: SlitConfiguration,
    free: FreeParameters,
    override_a: Sequence[float] | None = None,
    override_rho: Sequence[float] | None = None,
) -> list[str]:
    """What :func:`solve` refuses beyond :func:`~inclusion_forge.model.validate`.

    Each override must hold n finite numbers.  A single inclusion takes
    none: its constants are the free a_0 and rho_0, not solved ones.  Nor
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
    """Run the full construction and grade the outcome against ``numerics.tol_solve``.

    ``override_a``/``override_rho`` replace the solved constant vectors
    (letting deliberately violated configurations be traced); the
    boundedness residuals then report the violation and the verdict turns
    INVALID-UNBOUNDED.  A request that breaks a rule of
    :func:`request_violations` raises ``ConfigurationError``, and constants
    that are not finite (c, e_j, lambda_j, a_j, rho_j, rho'_j) ``SolverError``.
    """
    bad = request_violations(cfg, free, override_a, override_rho)
    if bad:
        raise ConfigurationError("; ".join(bad))
    derived = derive_constants(loading, materials, cfg, free)
    _refuse_non_finite(c=derived.c, e=derived.e, lam=derived.lam)
    timings = dict.fromkeys(STAGES, 0.0)
    period = cond = None
    # one slit has no moment system, and its map builds its own node table.  Its
    # period matrix would hold an empty system, on which np.linalg.cond raises, and
    # perfbench/run.py takes the cond of every period matrix its traced run keeps
    if cfg.n > 1:
        with _stage(timings, "moments"):
            period = solvability.period_matrix(cfg, numerics)
            cond = float(np.linalg.cond(solvability.system_matrix(period)))

    with _stage(timings, "constants"):
        if period is None:  # a_0 and rho_0 are the constants of one slit
            solved = solvability.build_constants([free.a0], [free.rho0], derived)
        else:
            solved = solvability.solve_constants(period, derived, free)

    constants = solved
    if override_a is not None or override_rho is not None:
        constants = solvability.build_constants(
            solved.a if override_a is None else override_a,
            solved.rho if override_rho is None else override_rho,
            derived,
        )
    _refuse_non_finite(a=constants.a, rho=constants.rho, rho_prime=constants.rho_prime)
    with _stage(timings, "residuals"):
        bounded = solvability.boundedness_residuals(cfg, derived, constants, numerics)

    with _stage(timings, "map_build"):
        sm = mapper.SlitMap(cfg, derived, constants, numerics, period)
    with _stage(timings, "tracing"):
        ends = np.reshape(cfg.endpoints, (cfg.n, 2))
        grid = geometry.bank_parameter_grid(ends[:, :1], ends[:, 1:], numerics.P)
        boundary = sm.banks(grid)
        profiles = geometry.build_profiles(grid, boundary.omega)
    with _stage(timings, "constants"):  # after tracing: one slit's printed form is a contour
        cross = _closed_form_cross_check(
            period, cfg, derived, solved, grid, boundary.omega,
            lambda xi, bank: mapper.n1_slit_profile(xi, bank, loading, materials, free),
        )
    with _stage(timings, "geometry"):
        geo_report = _geometry_report(profiles)
    with _stage(timings, "schwarz"):
        schwarz = _schwarz_residuals(boundary, grid, derived, constants)

    diag = _graded(
        profiles,
        geo_report,
        bounded,
        schwarz,
        numerics.tol_solve,
        solvability_cond=cond,
        truncation=sm.truncation_indicators(),
        kept_length=sm.kept_lengths(),
        cross_check=cross,
    )
    work = sm.bank_work(grid.shape[-1])
    return SolveResult(constants, tuple(profiles), diag, derived, sm, timings, work)
