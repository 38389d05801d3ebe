"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  Known
honest failure: criterion 02 as literally specified assigns the halved
scaling constant to the slit map, which contradicts the pinned profile
formulas (they satisfy slit(c) == circular(c/2)); the companion test
asserts the consistent direction.  See the project notes for the analysis.
"""

import time

import numpy as np
import pytest
from conftest import load_figure_inputs
from oracles import (
    central_symmetry_deviation,
    conjugation_symmetry_deviation,
    gauss_rule,
    n2_symmetric_a,
    n2_symmetric_rho,
    off_one_row,
    pv_one_row,
    series_coef,
    slit_banks,
)

from inclusion_forge import cli, figures, geometry, pipeline
from inclusion_forge.mapper import (
    SlitMap,
    g0,
    n1_circular_profile,
    n1_slit_profile,
)
from inclusion_forge.model import (
    FreeParameters,
    Loading,
    MaterialSet,
    derive_constants,
)
from inclusion_forge.solvability import (
    build_constants,
    n2_closed_form_a,
    n2_closed_form_rho,
    n3_closed_form_a,
    n3_closed_form_rho,
    period_matrix,
    solve_constants,
)

FIG1A_LOADING = Loading(1.0, 1.0, -1.0, 1.0)
FIG1A_MATERIALS = MaterialSet([5.0])

VALID_N2PLUS = [
    c.name for c in figures.FIGURE_CASES if c.expected == "VALID" and c.name != "fig1a"
]


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _epsilon_schwarz_residual(name: str, solve_figure, N: int) -> float:
    """Worst residual of both boundary conditions via the interior route."""
    res = solve_figure(name, N=N)
    sm, d, constants = res.slit_map, res.derived, res.constants
    eps = 1e-8
    worst = 0.0
    for m in range(sm.branch.n):
        a, b = sm.branch.slit(m)
        pad = 0.05 * (b - a)
        xs = np.linspace(a + pad, b - pad, 20)
        F = sm.F_interior(xs + 1j * eps)
        worst = max(worst, float(np.abs(F.imag - constants.a[m]).max()))
        om0 = sm.omega_regular(xs + 1j * eps) - d.gamma
        lhs = (1j * d.tau_bar * om0).imag
        rhs = (
            d.lam[m] * (g0(xs, m, d) + (-1.0) ** m * slit_banks(sm, xs, m).g1)
            + constants.rho[m]
        )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_criterion_01_single_inclusion_ellipse_exactness():
    t0 = time.perf_counter()
    grid = geometry.bank_parameter_grid(-1.0, 1.0, 200)
    free = FreeParameters()
    top = n1_slit_profile(grid, +1, FIG1A_LOADING, FIG1A_MATERIALS, free)
    bot = n1_slit_profile(grid[-2:0:-1], -1, FIG1A_LOADING, FIG1A_MATERIALS, free)
    residual = geometry.fit_ellipse(np.concatenate([top, bot]))
    elapsed = time.perf_counter() - t0
    ok = residual < 1e-10 and elapsed < 0.1
    _report(1, ok, f"conic residual {residual:.2e}, {elapsed * 1e3:.1f} ms")
    assert residual < 1e-10
    assert elapsed < 0.1


def _map_profiles(c_slit: float, c_circ: float):
    theta = np.linspace(0.0, 2.0 * np.pi, 721)
    xi = np.cos(theta)
    bank = np.where(np.sin(theta) >= 0.0, +1, -1)
    slit = np.array(
        [
            n1_slit_profile(
                x, b, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters(c_m1=c_slit)
            )
            for x, b in zip(xi, bank)
        ]
    )
    circ = n1_circular_profile(
        theta, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters(c_m1=c_circ)
    )
    # both parameterize the ellipse by the same angle, so matched samples
    # realize the arc-length correspondence with the same starting point
    return slit, circ


def test_criterion_02_map_coincidence_as_specified():
    # literal statement: slit-map scaling 0.5 against circular scaling 1.0
    slit, circ = _map_profiles(0.5, 1.0)
    dev = float(np.abs(slit - circ).max())
    ok = dev < 1e-8
    _report(
        2,
        ok,
        f"slit(0.5) vs circular(1.0) max deviation {dev:.3e} "
        "(constant assignment swapped in the source statement; "
        "see criterion 02b for the consistent direction)",
    )
    assert dev < 1e-8


def test_criterion_02b_map_coincidence_consistent_direction():
    slit, circ = _map_profiles(1.0, 0.5)
    dev = float(np.abs(slit - circ).max())
    ok = dev < 1e-8
    _report(2, ok, f"(b) slit(1.0) vs circular(0.5) max deviation {dev:.3e}")
    assert dev < 1e-8


def test_criterion_03_closed_forms_match_general_path():
    worst = 0.0
    slowest = 0.0
    for name, forms in (
        ("fig1b", "n2"),
        ("fig2c", "n2sym"),
        ("fig3a", "n3"),
        ("fig4a", "n3"),
    ):
        cfg, loading, materials, free, numerics, _ = load_figure_inputs(name, N=128)
        derived = derive_constants(loading, materials, cfg, free)
        t0 = time.perf_counter()
        period = period_matrix(cfg, numerics)
        constants = solve_constants(period, derived, free)
        a, rho = constants.a, constants.rho
        if forms == "n2":
            ca = n2_closed_form_a(period, derived, a[0])
            cr = n2_closed_form_rho(period, derived, rho[0])
        elif forms == "n2sym":
            ca = n2_symmetric_a(period, derived)
            cr = n2_symmetric_rho(period, derived)
        else:
            ca = n3_closed_form_a(period, derived, a[0])
            cr = n3_closed_form_rho(period, derived, rho[0])
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        worst = max(
            worst, float(np.abs(a - ca).max()), float(np.abs(rho - cr).max())
        )
        assert elapsed < 1.0, name
    ok = worst < 1e-8 and slowest < 1.0
    _report(3, ok, f"max mismatch {worst:.2e}, slowest case {slowest * 1e3:.0f} ms")
    assert worst < 1e-8


def test_criterion_04_boundedness_certificate(solve_figure):
    res = solve_figure("fig1b")
    sm = res.slit_map
    dirs = np.exp(1j * np.array([np.pi / 7, 2.1, 4.0]))
    w3 = np.abs(sm.omega_regular(1e3 * dirs))
    w4 = np.abs(sm.omega_regular(1e4 * dirs))
    variation = float(np.abs(w4 - w3).max() / np.abs(w3).min())
    rho_bad = res.constants.rho.copy()
    rho_bad[1] += 0.1
    smb = SlitMap(
        sm.branch, res.derived,
        build_constants(res.constants.a, rho_bad, res.derived), sm.numerics,
    )
    raw = float(
        abs(smb.omega_regular(1e4 * dirs[0])) / abs(smb.omega_regular(1e3 * dirs[0]))
    )
    ref = smb.omega_regular(1e2 * dirs)
    growth = np.abs(smb.omega_regular(1e4 * dirs) - ref) / np.abs(
        smb.omega_regular(1e3 * dirs) - ref
    )
    ok = variation < 0.01 and raw >= 10.0 and bool(np.all(growth >= 10.0))
    _report(
        4, ok,
        f"solved variation {variation:.2e}; perturbed growth raw {raw:.2f}, "
        f"increments {growth.min():.2f}..{growth.max():.2f}",
    )
    assert variation < 0.01
    assert raw >= 10.0
    assert np.all(growth >= 10.0)


def test_criterion_05_interior_limits_reach_boundary(solve_figure):
    worst_frac = 0.0
    for name in VALID_N2PLUS:
        res = solve_figure(name)
        sm = res.slit_map
        diam = max(p.diameter for p in res.profiles)
        for m in range(sm.branch.n):
            a, b = sm.branch.slit(m)
            pad = 0.05 * (b - a)
            xs = np.linspace(a + pad, b - pad, 20)
            top = slit_banks(sm, xs, m).omega[0]
            d1 = float(np.abs(sm.omega_interior(xs + 1e-4j) - top).max())
            d2 = float(np.abs(sm.omega_interior(xs + 0.5e-4j) - top).max())
            worst_frac = max(worst_frac, d1 / (1e-2 * diam))
            assert d1 < 1e-2 * diam, name
            assert d2 < d1, name
    ok = worst_frac < 1.0
    _report(5, ok, f"worst deviation at eps=1e-4: {worst_frac:.2f} of budget")
    assert ok


def test_criterion_06_schwarz_residuals(solve_figure):
    worst = 0.0
    for name in VALID_N2PLUS:
        worst = max(worst, _epsilon_schwarz_residual(name, solve_figure, 128))
    ok = worst < 1e-6
    _report(6, ok, f"worst residual {worst:.2e} at N=M=128")
    assert worst < 1e-6


def test_criterion_07_symmetries(solve_figure):
    worst_central = 0.0
    for name in ("fig2a", "fig2b"):
        res = solve_figure(name)
        diam = max(p.diameter for p in res.profiles)
        dev = central_symmetry_deviation(res.profiles[0], res.profiles[1])
        worst_central = max(worst_central, dev / diam)
    worst_conj = 0.0
    for name in ("fig2c", "fig4a", "fig4b"):
        res = solve_figure(name)
        diam = max(p.diameter for p in res.profiles)
        dev = max(
            conjugation_symmetry_deviation(p) for p in res.profiles
        )
        worst_conj = max(worst_conj, dev / diam)
    ok = worst_central < 1e-6 and worst_conj < 1e-6
    _report(
        7, ok,
        f"central {worst_central:.2e}, conjugation {worst_conj:.2e} (per diameter)",
    )
    assert worst_central < 1e-6
    assert worst_conj < 1e-6


def test_criterion_08_contour_closure(solve_figure):
    worst = 0.0
    for case in figures.FIGURE_CASES:
        if case.expected != "VALID":
            continue
        res = solve_figure(case.name)
        for p in res.profiles:
            worst = max(worst, p.closure_error / (1e-8 * p.diameter))
            assert p.closure_error < 1e-8 * p.diameter, case.name
    _report(8, True, f"worst closure {worst:.2e} of budget")


def test_criterion_09_figure_regression(tmp_path):
    t0 = time.perf_counter()
    code = cli.main(["reproduce-figures", "--outdir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    verdicts = {row["case"]: row["verdict"] for row in summary}
    expected = {
        "fig2c": "VALID",
        "fig2d": "INVALID-UNBOUNDED",
        "fig4a": "VALID",
        "fig4b": "VALID",
        "fig4c": "VALID",
        "fig4d": "INVALID-GEOMETRY",
    }
    mismatches = {k: verdicts[k] for k, v in expected.items() if verdicts[k] != v}
    ok = code == 0 and not mismatches and elapsed < 30.0
    _report(
        9, ok,
        f"exit {code}, {elapsed:.1f} s, classifications "
        + ("all as published" if not mismatches else str(mismatches)),
    )
    assert code == 0
    assert not mismatches
    assert elapsed < 30.0


def test_criterion_10_quadrature_identities(solve_figure):
    dev = abs(gauss_rule(lambda x: np.ones_like(x), -1.0, 1.0, 8) - np.pi)
    xs = np.array([-0.7, -0.2, 0.3, 0.8])
    for m in (1, 2, 3, 5):
        series = series_coef(lambda y, m=m: np.cos(m * np.arccos(y)), -1.0, 1.0, 64, 32)
        # U_{m-1} via its trigonometric form
        theta = np.arccos(xs)
        u = np.sin(m * theta) / np.sin(theta)
        dev = max(dev, float(np.abs(pv_one_row(series, -1.0, 1.0, xs) - np.pi * u).max()))
    s0 = series_coef(lambda y: np.ones_like(y), -1.0, 1.0, 32, 16)
    dev = max(dev, float(abs(off_one_row(s0, -1.0, 1.0, 2.0) - (-np.pi / np.sqrt(3.0)))))
    identities_ok = dev < 1e-12
    r128 = _epsilon_schwarz_residual("fig1b", solve_figure, 128)
    r256 = _epsilon_schwarz_residual("fig1b", solve_figure, 256)
    spectral_ok = abs(r128 - r256) < 1e-9
    ok = identities_ok and spectral_ok
    _report(
        10, ok,
        f"identity deviation {dev:.2e}; residual change under doubling "
        f"{abs(r128 - r256):.2e}",
    )
    assert identities_ok
    assert spectral_ok
