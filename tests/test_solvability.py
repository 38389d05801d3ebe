import dataclasses

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs
from oracles import (
    antisymmetric_free_values,
    n2_symmetric_a,
    n2_symmetric_rho,
    smooth_weight,
    solve_a,
    solve_rho,
    weighted_integral,
    weighted_moment,
)

from inclusion_forge import branch as branch_module
from inclusion_forge import pipeline
from inclusion_forge.branch import slit_table
from inclusion_forge.mapper import g0
from inclusion_forge.model import (
    AT_INFINITY,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    derive_constants,
    pole_density,
)
from inclusion_forge.solvability import (
    boundedness_residuals,
    build_constants,
    is_symmetric_pair,
    n2_closed_form_a,
    n2_closed_form_rho,
    n3_closed_form_a,
    n3_closed_form_rho,
    period_matrix,
    solve_constants,
    system_matrix,
)

NUM = NumericsConfig()
FREE = FreeParameters()  # a0 = rho0 = 0
ANTISYMMETRIC = FreeParameters(antisymmetric=True)


def figure_problem(name):
    cfg, loading, materials, free, numerics, _ = load_figure_inputs(name)
    derived = derive_constants(loading, materials, cfg, free)
    return cfg, derived, numerics


def test_period_entries_against_weighted_quadrature_oracle():
    cfg, _, numerics = figure_problem("fig1b")
    period = period_matrix(cfg, numerics)
    for j in range(2):
        a, b = cfg.slit(j)
        for m in (1, 2):
            oracle = weighted_integral(
                lambda x, j=j, m=m: x ** (m - 1) / smooth_weight(cfg.endpoints, j, x), a, b
            )
            assert period.entry(m, j) == pytest.approx(oracle, abs=1e-8)


def test_period_symmetric_pair_has_equal_first_moments():
    cfg, _, numerics = figure_problem("fig2b")
    period = period_matrix(cfg, numerics)
    assert period.entry(1, 0) == pytest.approx(period.entry(1, 1), rel=1e-13)


def test_period_middle_slit_odd_moment_vanishes():
    cfg, _, numerics = figure_problem("fig4a")
    period = period_matrix(cfg, numerics)
    assert period.entry(2, 1) == pytest.approx(0.0, abs=1e-14)
    assert np.all(period.I[0] > 0)


@pytest.mark.parametrize("name", ["fig1b", "fig3a", "fig4a"])
def test_alternating_row_sums_vanish(name):
    # contour integral of xi^(m-1)/q over a large circle is zero for
    # m <= n-1, which forces sum_j (-1)^j I_mj = 0
    cfg, _, numerics = figure_problem(name)
    period = period_matrix(cfg, numerics)
    n = cfg.n
    for m in range(1, n):
        alt = sum((-1.0) ** j * period.entry(m, j) for j in range(n))
        assert abs(alt) < 1e-10 * period.entry(m, n - 1 if n > 1 else 0)


def test_system_matrix_is_nonsingular_on_figures():
    for name in ("fig1b", "fig3a", "fig4a"):
        cfg, _, numerics = figure_problem(name)
        det = np.linalg.det(system_matrix(period_matrix(cfg, numerics)))
        assert det != 0.0


def test_one_slit_has_no_moment_conditions():
    # degree n - 2 = -1: an empty basis and system, and the one monomial moment,
    # the integral of 1/|q| over the slit, which is pi
    period = period_matrix(SlitConfiguration([-1.0, 2.0]), NumericsConfig(N=16, M=16))
    assert period.basis.shape == (0, 1, 16)
    assert period.moments.shape == (0, 1)
    assert system_matrix(period).shape == (0, 0)
    np.testing.assert_allclose(period.I, [[np.pi]], rtol=1e-15)


def test_symmetric_real_pole_strength_gives_zero_a():
    cfg, derived, numerics = figure_problem("fig2b")
    assert derived.c_double_prime == 0.0
    period = period_matrix(cfg, numerics)
    a = solve_constants(period, derived, FREE).a
    np.testing.assert_allclose(a, 0.0, atol=1e-15)


def test_imaginary_scaling_reproduces_published_antisymmetric_a():
    # loading with (tau_inf_bar - tau_bar)/mu = 1 so c = c_m1 = i and the
    # published coefficient (printed as Im c_m1) agrees with Im c
    loading = Loading(1.0, 0.0, 2.0, 0.0)
    cfg = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], 0.0)
    materials = MaterialSet([5.0, 5.0])
    derived = derive_constants(loading, materials, cfg, FreeParameters(c_m1=1j))
    assert derived.c == pytest.approx(1j)
    period = period_matrix(cfg, NUM)
    expected_a1 = weighted_moment(
        cfg, 1, lambda x: 1.0 / x, 0, NUM.N
    ) / period.entry(1, 1)
    sym = n2_symmetric_a(period, derived)
    assert sym[1] == pytest.approx(expected_a1, rel=1e-13)
    assert sym[0] == pytest.approx(-expected_a1, rel=1e-13)
    # the general path with the antisymmetric free value agrees
    a = solve_constants(period, derived, ANTISYMMETRIC).a
    np.testing.assert_allclose(a, sym, atol=1e-12)


def test_zero_drive_gives_zero_rho():
    # c_m1 = i makes every e_j pure imaginary for real loading, so c_* = 0
    loading = Loading(1.0, 0.0, -1.0, 0.0)
    cfg = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], 0.0)
    materials = MaterialSet([5.0, 5.0])
    derived = derive_constants(loading, materials, cfg, FreeParameters(c_m1=1j))
    np.testing.assert_allclose(derived.c_star, 0.0, atol=1e-16)
    period = period_matrix(cfg, NUM)
    rho = solve_constants(period, derived, FREE).rho
    np.testing.assert_allclose(rho, 0.0, atol=1e-14)


def test_fig2c_rho_matches_published_closed_form():
    cfg, derived, numerics = figure_problem("fig2c")
    period = period_matrix(cfg, numerics)
    rho = solve_constants(period, derived, ANTISYMMETRIC).rho
    sym = n2_symmetric_rho(period, derived)
    np.testing.assert_allclose(rho, sym, atol=1e-12)
    # direct quadrature of the printed expression
    lam0 = derived.lam[0]
    expected = (
        -lam0
        * derived.c_star[0]
        * weighted_integral(
            lambda x: 1.0 / (x * smooth_weight(cfg.endpoints, 1, x)), *cfg.slit(1)
        )
        / weighted_integral(
            lambda x: 1.0 / smooth_weight(cfg.endpoints, 1, x), *cfg.slit(1)
        )
    )
    assert rho[1] == pytest.approx(expected, rel=1e-9)


def test_fig3a_conditions_hold_under_independent_quadrature():
    cfg, derived, numerics = figure_problem("fig3a")
    period = period_matrix(cfg, numerics)
    a = solve_constants(period, derived, FREE).a
    for m in (1, 2):
        total = 0.0
        for j in range(3):
            aj, bj = cfg.slit(j)
            total += (-1.0) ** j * weighted_integral(
                lambda x, j=j: (a[j] - pole_density(x, derived))
                * x ** (m - 1)
                / smooth_weight(cfg.endpoints, j, x),
                aj,
                bj,
            )
        assert abs(total) < 1e-8


def test_fig4a_antisymmetric_constants():
    cfg, derived, numerics = figure_problem("fig4a")
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, ANTISYMMETRIC)
    a, rho = constants.a, constants.rho
    assert a[0] == pytest.approx(-a[2], abs=1e-12)
    assert rho[0] == pytest.approx(-rho[2], abs=1e-8)
    assert rho[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig2a"])
def test_two_slit_closed_forms_match_general_path(name):
    cfg, derived, numerics = figure_problem(name)
    assert is_symmetric_pair(cfg)
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, FREE)
    np.testing.assert_allclose(
        constants.a, n2_closed_form_a(period, derived, 0.0), atol=1e-10
    )
    np.testing.assert_allclose(
        constants.rho, n2_closed_form_rho(period, derived, 0.0), atol=1e-10
    )


@pytest.mark.parametrize("name", ["fig3a", "fig3c", "fig4a", "fig4c"])
def test_three_slit_closed_forms_match_general_path(name):
    cfg, derived, numerics = figure_problem(name)
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, FreeParameters(a0=0.2, rho0=-0.3))
    np.testing.assert_allclose(
        constants.a, n3_closed_form_a(period, derived, 0.2), atol=1e-10
    )
    np.testing.assert_allclose(
        constants.rho, n3_closed_form_rho(period, derived, -0.3), atol=1e-10
    )


def test_boundedness_residuals_flag_overrides():
    cfg, derived, numerics = figure_problem("fig2c")
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, ANTISYMMETRIC)
    good = boundedness_residuals(cfg, derived, constants, numerics)
    assert max(good["a_relative"], good["rho_relative"]) < 1e-12
    bad = boundedness_residuals(
        cfg, derived, build_constants(constants.a, np.zeros(2), derived), numerics
    )
    assert bad["rho_relative"] > 1e-2


def mirrored_four_slit_inputs():
    # four symmetric slits, equal kappa, pole at the origin
    cfg = SlitConfiguration(
        [(-1.0, -0.7), (-0.5, -0.2), (0.2, 0.5), (0.7, 1.0)], 0.0 + 0.0j
    )
    free = FreeParameters(c_m1=0.7 + 0.2j, antisymmetric=True)
    return cfg, Loading(1.0, 0.5, -0.5, 1.5), MaterialSet([3.0] * 4), free, NUM


def test_mirrored_configuration_gives_antisymmetric_vectors():
    cfg, loading, materials, free, numerics = mirrored_four_slit_inputs()
    derived = derive_constants(loading, materials, cfg, free)
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, free)
    a, rho = constants.a, constants.rho
    np.testing.assert_allclose(a, -a[::-1], atol=1e-10)
    np.testing.assert_allclose(rho, -rho[::-1], atol=1e-10)


def test_general_path_handles_four_slits():
    cfg = SlitConfiguration(
        [(-1.0, -0.7), (-0.5, -0.2), (0.0, 0.3), (0.5, 1.0)], 0.4 + 1.1j
    )
    loading = Loading(1.0, 1.0, -1.0, 1.0)
    materials = MaterialSet([5.0, 0.5, 2.0, 0.2])
    derived = derive_constants(loading, materials, cfg, FreeParameters())
    period = period_matrix(cfg, NUM)
    res = boundedness_residuals(cfg, derived, solve_constants(period, derived, FREE), NUM)
    assert max(res["a_relative"], res["rho_relative"]) < 1e-12


def _antisymmetric_inputs(case):
    if case == "mirrored":
        return mirrored_four_slit_inputs()
    if isinstance(case, int):
        inputs = slit_layout_inputs(case)
    else:
        inputs = load_figure_inputs(case)[:5]
    cfg, loading, materials, free, numerics = inputs
    return cfg, loading, materials, dataclasses.replace(free, antisymmetric=True), numerics


@pytest.mark.parametrize(
    "case", ["fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "mirrored", 4, 8, 12, 16, 20, 24]
)
def test_solve_constants_matches_the_per_problem_solves(case):
    # the reference solves each problem once per free value and finds the
    # antisymmetric free values from two probe solves each
    cfg, loading, materials, free, numerics = _antisymmetric_inputs(case)
    derived = derive_constants(loading, materials, cfg, free)
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, free)
    a0, rho0 = antisymmetric_free_values(period, cfg, derived)
    # the reference solves the monomial system it forms from period.I; its
    # solve errors, of order eps * cond of that system, are above 1e-12 past
    # n = 12, and at n = 24 it misses its own antisymmetry by ~1e-8
    n = cfg.n
    monomial = period.I[: n - 1, 1:] * (-1.0) ** np.arange(1, n)
    rtol = max(1e-12, np.finfo(float).eps * np.linalg.cond(monomial))
    for got, want in ((constants.a, solve_a(period, cfg, derived, a0)),
                      (constants.rho, solve_rho(period, cfg, derived, rho0))):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        # the one solve makes the selected pair antisymmetric to rounding
        assert abs(got[-1] + got[0]) <= 1e-15 * np.abs(got).max()


@pytest.mark.parametrize("name", ["fig4a", "fig4c"])
@pytest.mark.parametrize("c_m1", [0.5 - 1j, 1 + 1.5j, 2 + 0.5j])
def test_pole_at_infinity_with_complex_scaling_matches_printed_forms(name, c_m1):
    # c'' = Im c is nonzero: the general moments of c'' xi carry the drive
    # the printed three-slit forms take from the moment row n
    cfg, loading, materials, free, numerics, _ = load_figure_inputs(name)
    free = FreeParameters(a0=0.1, rho0=-0.2, c_m1=c_m1)
    derived = derive_constants(loading, materials, cfg, free)
    assert derived.pole_at_infinity and derived.c_double_prime != 0.0
    period = period_matrix(cfg, numerics)
    constants = solve_constants(period, derived, free)
    for got, want in ((constants.a, n3_closed_form_a(period, derived, 0.1)),
                      (constants.rho, n3_closed_form_rho(period, derived, -0.2))):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.ptp(constants.a) > 0.1  # the drive moves the constants


@pytest.mark.parametrize("N", [64, 128])
def test_slit_table_moments_match_weighted_moment(N):
    cfg, loading, materials, free, _ = sixteen_slit_inputs()
    derived = derive_constants(loading, materials, cfg, free)
    table = slit_table(cfg, N)
    rows = np.arange(cfg.n)[:, None]
    densities = [  # (f(x, j) for one slit, f at the nodes of every slit)
        (lambda x, j: 1.0, 1.0),
        (lambda x, j: pole_density(x, derived), pole_density(table.nodes, derived)),
        (lambda x, j: g0(x, j, derived), g0(table.nodes, rows, derived)),
    ]
    for f, samples in densities:
        moments = table.integrate(samples * table.powers)
        for m in range(cfg.n):
            for j in range(cfg.n):
                expected = weighted_moment(cfg, j, lambda x: f(x, j), m, N)
                assert moments[m, j] == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_sixteen_slit_solve_makes_no_per_slit_moment_calls(monkeypatch):
    # every moment of a solve, the printed closed forms' too, is summed over
    # the stacked slit table: r_j is formed twice per solve, each time for
    # every slit at once, at the N = 64 nodes of the period matrix and at the
    # 2N of the moment residuals
    shapes = []
    smooth_factor = branch_module._smooth_factor

    def counted(cfg, x, slit):
        shapes.append(x.shape)
        return smooth_factor(cfg, x, slit)

    monkeypatch.setattr(branch_module, "_smooth_factor", counted)
    for name, n in (("fig1b", 2), ("fig3a", 3)):
        shapes.clear()
        result = pipeline.solve(*load_figure_inputs(name)[:5])
        assert result.diagnostics.cross_check["applied"], name
        assert shapes == [(n, 64), (n, 128)], name
    shapes.clear()
    result = pipeline.solve(*sixteen_slit_inputs())
    assert result.slit_map.branch.n == 16
    assert shapes == [(16, 64), (16, 128)]
    assert max(result.diagnostics.boundedness["a_relative"],
               result.diagnostics.boundedness["rho_relative"]) < 1e-8
