import logging

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs
from oracles import (
    cauchy_off_80bit,
    cauchy_weighted,
    smooth_weight,
    tail_degree_80bit,
    weighted_pv,
)

from inclusion_forge import branch as branch_module
from inclusion_forge import figures, mapper, pipeline, quadrature
from inclusion_forge.branch import BranchData, abs_q, bank_value, eval_q, weight_factor
from inclusion_forge.mapper import (
    SlitMap,
    g0,
    n1_circular_profile,
    n1_shape_ratio,
    n1_slit_profile,
)
from inclusion_forge.model import (
    DegenerateEllipseError,
    EvaluationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    derive_constants,
    pole_density,
    singular_part_F,
)
from inclusion_forge.geometry import bank_parameter_grid
from inclusion_forge.quadrature import (
    ChebyshevSeries,
    cauchy_off,
    cheb_coeffs,
    singular_on,
    singular_on_stack,
    slit_roots,
)
from inclusion_forge.solvability import (
    build_constants,
    period_matrix,
    solve_constants,
)


def solved_map(name, free_override=None):
    cfg, loading, materials, free, numerics, _ = load_figure_inputs(name)
    if free_override is not None:
        free = free_override
    derived = derive_constants(loading, materials, cfg, free)
    branch = BranchData(cfg.endpoints)
    constants = solve_constants(period_matrix(branch, numerics), derived, free)
    return SlitMap(branch, derived, constants, numerics), derived, constants


# -- g0 -------------------------------------------------------------------


def test_g0_vanishes_without_drive():
    # real loading with c_m1 = i makes every e_j pure imaginary
    cfg, _, materials, _, _, _ = load_figure_inputs("fig4a")
    loading = Loading(1.0, 0.0, -1.0, 0.0)
    derived = derive_constants(loading, materials, cfg, FreeParameters(c_m1=1j))
    np.testing.assert_allclose(derived.c_star, 0.0, atol=1e-16)
    xs = np.linspace(0.82, 0.98, 5)
    np.testing.assert_allclose(g0(xs, 2, derived), 0.0, atol=1e-16)


def test_g0_symmetric_pole_at_origin_is_odd_reciprocal():
    cfg, loading, materials, free, _, _ = load_figure_inputs("fig2a")
    derived = derive_constants(loading, materials, cfg, free)
    xs = np.linspace(0.3, 0.9, 7)
    np.testing.assert_allclose(
        g0(xs, 1, derived), derived.c_star[1] / xs, rtol=1e-14
    )
    np.testing.assert_allclose(g0(-xs, 0, derived), -g0(xs, 0, derived), rtol=1e-14)


def test_g0_finite_imaginary_pole_direct_arithmetic():
    cfg, loading, materials, free, _, _ = load_figure_inputs("fig3a")
    derived = derive_constants(loading, materials, cfg, free)
    xi = 0.73
    expected = (derived.e[1] * (xi + 5j) / (xi**2 + 25.0)).real
    assert g0(xi, 1, derived) == pytest.approx(expected, rel=1e-14)


# -- g1 -------------------------------------------------------------------


def _symmetric_complex_scaling_map():
    # complex scaling makes Im c nonzero, so g_1 is nontrivial and odd
    cfg = SlitConfiguration([(-1.0, -0.3), (0.3, 1.0)], 0.0)
    loading = Loading(1.0, 1.0, -1.0, 1.0)
    materials = MaterialSet([0.25, 0.25])
    free = FreeParameters(c_m1=0.8 + 0.6j, antisymmetric=True)
    derived = derive_constants(loading, materials, cfg, free)
    branch = BranchData(cfg.endpoints)
    numerics = NumericsConfig()
    constants = solve_constants(period_matrix(branch, numerics), derived, free)
    return SlitMap(branch, derived, constants, numerics)


def test_g1_is_odd_for_symmetric_configuration():
    # trivially odd when the pole strength is real (g_1 = 0, as in the
    # real-scaling sample set) ...
    sm, _, _ = solved_map("fig2a")
    xs = np.linspace(0.25, 0.95, 9)
    np.testing.assert_allclose(sm.g1(-xs, 0), -sm.g1(xs, 1), atol=1e-13)
    # ... and genuinely odd with a complex scaling constant
    smc = _symmetric_complex_scaling_map()
    xs = np.linspace(0.35, 0.95, 9)
    assert np.abs(smc.g1(xs, 1)).max() > 0.1
    np.testing.assert_allclose(smc.g1(-xs, 0), -smc.g1(xs, 1), atol=1e-13)


def test_g1_vanishes_at_endpoints():
    sm, _, _ = solved_map("fig1b")
    assert sm.g1(0.5, 1) == 0.0
    assert sm.g1(1.0, 1) == 0.0


def test_g1_against_principal_value_oracle():
    sm, derived, constants = solved_map("fig1b")
    branch = sm.branch
    for m in (0, 1):
        am, bm = branch.slit(m)
        xi = 0.5 * (am + bm)
        total = 0.0
        for j in range(2):
            aj, bj = branch.slit(j)
            h = lambda t, j=j: (
                constants.a[j] - pole_density(t, derived)
            ) / smooth_weight(branch.endpoints, j, t)
            if j == m:
                total += (-1.0) ** j * weighted_pv(h, aj, bj, xi)
            else:
                total += (-1.0) ** j * cauchy_weighted(h, aj, bj, xi).real
        oracle = abs_q(branch, xi) / np.pi * total
        assert sm.g1(xi, m) == pytest.approx(oracle, abs=1e-6)


# -- omega ----------------------------------------------------------------


def test_central_symmetry_of_symmetric_pair():
    sm, _, _ = solved_map("fig2a")
    xs = np.linspace(0.22, 0.98, 11)
    for bank in (+1, -1):
        lhs = sm.omega_boundary(xs, bank, 1)
        rhs = -sm.omega_boundary(-xs, -bank, 0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # also with a complex scaling constant (nontrivial g_1 branch)
    smc = _symmetric_complex_scaling_map()
    xs = np.linspace(0.35, 0.95, 9)
    for bank in (+1, -1):
        np.testing.assert_allclose(
            smc.omega_boundary(xs, bank, 1),
            -smc.omega_boundary(-xs, -bank, 0),
            atol=1e-12,
        )


def test_endpoint_closure_is_exact():
    sm, _, _ = solved_map("fig1c")
    for m in (0, 1):
        for end in sm.branch.slit(m):
            assert sm.omega_boundary(end, +1, m) == sm.omega_boundary(end, -1, m)


@pytest.mark.parametrize("name", ["fig1b", "fig3a", "fig4a"])
def test_interior_limit_reaches_boundary_values(name):
    sm, _, _ = solved_map(name)
    scale = max(
        abs(sm.omega_boundary(sum(sm.branch.slit(m)) / 2, +1, m))
        for m in range(sm.branch.n)
    )
    for m in range(sm.branch.n):
        a, b = sm.branch.slit(m)
        pad = 0.05 * (b - a)
        xs = np.linspace(a + pad, b - pad, 9)
        top = sm.omega_boundary(xs, +1, m)
        d1 = np.abs(sm.omega_interior(xs + 1e-4j) - top).max()
        d2 = np.abs(sm.omega_interior(xs + 5e-5j) - top).max()
        assert d1 < 1e-2 * max(scale, 1.0)
        assert d2 < d1
        bot = sm.omega_boundary(xs, -1, m)
        assert np.abs(sm.omega_interior(xs - 1e-4j) - bot).max() < 1e-2 * max(scale, 1.0)


def test_pole_residue_matches_scaling_constant():
    sm, derived, _ = solved_map("fig1b")
    for r in (1e-3, 1e-4):
        z = derived.zeta_inf + r * np.exp(0.77j)
        est = (z - derived.zeta_inf) * sm.omega_interior(z)
        assert est == pytest.approx(derived.c_m1, abs=20 * r)


def test_regular_part_is_bounded_when_solved():
    sm, _, _ = solved_map("fig1b")
    zs = [1e3 * np.exp(1j * t) for t in (0.3, 2.0, 4.1)]
    vals3 = np.array([sm.omega_regular(z) for z in zs])
    vals4 = np.array([sm.omega_regular(10.0 * z) for z in zs])
    assert np.abs(vals4 - vals3).max() < 1e-2 * np.abs(vals3).max()


def test_broken_rho_makes_regular_part_grow():
    sm, derived, constants = solved_map("fig1b")
    rho_bad = constants.rho.copy()
    rho_bad[1] += 0.1
    smb = SlitMap(
        sm.branch, derived, build_constants(constants.a, rho_bad, derived), sm.numerics
    )
    t = np.pi / 7
    ref = smb.omega_regular(1e2 * np.exp(1j * t))
    d3 = abs(smb.omega_regular(1e3 * np.exp(1j * t)) - ref)
    d4 = abs(smb.omega_regular(1e4 * np.exp(1j * t)) - ref)
    assert d4 / d3 >= 10.0


def test_conjugation_symmetry_with_real_data():
    sm, _, _ = solved_map("fig2c")
    xs = np.linspace(0.4, 0.95, 9)
    np.testing.assert_allclose(
        np.conj(sm.omega_boundary(xs, +1, 1)),
        sm.omega_boundary(xs, -1, 1),
        atol=1e-14,
    )


# -- F --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig1b", "fig3c", "fig4c"])
def test_imaginary_part_of_F_is_the_slit_constant(name):
    sm, _, constants = solved_map(name)
    for m in range(sm.branch.n):
        a, b = sm.branch.slit(m)
        xs = np.linspace(a + 0.03 * (b - a), b - 0.03 * (b - a), 9)
        for bank in (+1, -1):
            F = sm.F_boundary(xs, bank, m)
            np.testing.assert_allclose(F.imag, constants.a[m], atol=5e-15)


def test_equal_stresses_make_F_constant():
    cfg, _, materials, _, numerics, _ = load_figure_inputs("fig1b")
    loading = Loading(1.0, 1.0, 1.0, 1.0)
    free = FreeParameters(beta0=0.25)
    derived = derive_constants(loading, materials, cfg, free)
    branch = BranchData(cfg.endpoints)
    constants = solve_constants(period_matrix(branch, numerics), derived, free)
    sm = SlitMap(branch, derived, constants, numerics)
    zs = np.array([0.2 + 0.5j, -2.0 + 0.1j, 3.0 - 1.0j])
    np.testing.assert_allclose(sm.F_interior(zs), 0.25, atol=1e-12)


def test_F_interior_limit_oracle():
    sm, _, constants = solved_map("fig3c")
    m = 2
    a, b = sm.branch.slit(m)
    xs = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 7)
    top = sm.F_boundary(xs, +1, m)
    d1 = np.abs(sm.F_interior(xs + 1e-4j) - top).max()
    d2 = np.abs(sm.F_interior(xs + 5e-5j) - top).max()
    assert d2 < d1 < 1e-2


def test_F_pole_strength():
    sm, derived, _ = solved_map("fig1d")
    r = 1e-4
    z = derived.zeta_inf + r * np.exp(1.3j)
    est = (z - derived.zeta_inf) * sm.F_interior(z)
    assert est == pytest.approx(derived.c, abs=50 * r)


# -- single inclusion -----------------------------------------------------


FIG1A_LOADING = Loading(1.0, 1.0, -1.0, 1.0)
FIG1A_MATERIALS = MaterialSet([5.0])


def test_shape_ratio_reference_value():
    # (10(-1+i) - 6(1+i)) / (-4(1-i)) evaluated by hand
    assert n1_shape_ratio(FIG1A_LOADING, FIG1A_MATERIALS) == pytest.approx(
        2.5 + 1.5j, abs=1e-15
    )


def test_slit_and_circular_maps_trace_the_same_ellipse():
    # the two representations coincide when the circular scaling constant is
    # half the slit one (both parameterize to the same trig polynomial)
    theta = np.linspace(0.0, 2.0 * np.pi, 33, endpoint=False)
    xi = np.cos(theta)
    bank = np.where(np.sin(theta) >= 0.0, 1, -1)
    slit = np.array(
        [
            n1_slit_profile(x, b, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters(c_m1=1.0))
            for x, b in zip(xi, bank)
        ]
    )
    circ = n1_circular_profile(
        theta, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters(c_m1=0.5)
    )
    assert np.abs(slit - circ).max() < 1e-14


def test_real_loading_profile_is_conjugation_symmetric():
    loading = Loading(1.0, 0.0, -2.0, 0.0)
    materials = MaterialSet([4.0])
    xs = np.linspace(-0.95, 0.95, 11)
    top = n1_slit_profile(xs, +1, loading, materials, FreeParameters())
    bot = n1_slit_profile(xs, -1, loading, materials, FreeParameters())
    np.testing.assert_allclose(np.conj(top), bot, atol=1e-15)
    assert n1_shape_ratio(loading, materials).imag == 0.0


def test_degenerate_shape_ratio_is_rejected():
    # equal real stresses: (2k - (k+1))/(1-k) = -1, a segment
    loading = Loading(1.0, 0.0, 1.0, 0.0)
    materials = MaterialSet([3.0])
    assert n1_shape_ratio(loading, materials) == pytest.approx(-1.0)
    with pytest.raises(DegenerateEllipseError):
        n1_slit_profile(0.3, +1, loading, materials, FreeParameters())
    with pytest.raises(DegenerateEllipseError):
        n1_circular_profile(0.3, loading, materials, FreeParameters())


def test_gamma_translates_profiles():
    shift = 2.0 - 3.0j
    base = n1_slit_profile(0.4, +1, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters())
    moved = n1_slit_profile(
        0.4, +1, FIG1A_LOADING, FIG1A_MATERIALS, FreeParameters(gamma=shift)
    )
    assert moved == base + shift


def test_truncation_indicators_are_small_on_figures():
    sm, _, _ = solved_map("fig1b")
    indicators = sm.truncation_indicators()
    assert max(indicators.values()) < 1e-10


def test_interior_values_do_not_depend_on_the_target_blocking(monkeypatch):
    sm, _, _ = solved_map("fig3a")
    z = np.linspace(-1.5, 1.5, 7)[:, None] + 1j * np.linspace(0.05, 0.9, 5)
    whole = sm.omega_interior(z), sm.F_interior(z)
    monkeypatch.setattr(mapper, "_BLOCK_VALUES", 8)  # one or two targets a block
    np.testing.assert_allclose(sm.omega_interior(z), whole[0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(sm.F_interior(z), whole[1], rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["omega_interior", "omega_regular", "F_interior"])
def test_interior_evaluators_reject_points_on_a_closed_slit(name):
    sm, _, _ = solved_map("fig3a")
    evaluate = getattr(sm, name)
    for a, b in sm.branch.slits:
        for x in (a, 0.3 * a + 0.7 * b, b):
            for z in (complex(x, 0.0), complex(x, -0.0)):
                with pytest.raises(EvaluationError):
                    evaluate(z)
                with pytest.raises(EvaluationError):
                    evaluate(np.array([2.0 + 1.0j, z]))
    # real targets in a gap and outside all slits are accepted
    k = sm.branch.endpoints
    x = np.array([0.5 * (k[1] + k[2]), 0.5 * (k[3] + k[4]), k[0] - 0.5, k[-1] + 0.5])
    for z in (x + 0j, np.conj(x + 0j)):
        assert np.all(np.isfinite(evaluate(z)))


def test_interior_values_are_q_times_the_cauchy_sums_without_eval_q(monkeypatch):
    sm, d, _ = solved_map("fig3a")
    n = sm.branch.n
    z = np.linspace(-1.8, 1.8, 9)[:, None] + 1j * np.array([-1.2, -0.03, 1e-6, 0.4, 2.0])
    z = np.concatenate([z.ravel(), [0.3 + 0.0j, -2.5 - 0.0j, 40.0 + 30.0j]])
    q = eval_q(sm.branch, z)
    sums = np.zeros((len(mapper.FAMILIES), z.size), dtype=complex)
    for f in range(len(mapper.FAMILIES)):
        for j, (a, b) in enumerate(sm.branch.slits):
            sums[f] += sm._weights[f, j] * cauchy_off(ChebyshevSeries(a, b, sm._coef[f, j]), z)
    omega = (
        mapper.singular_part_omega(z, d)
        - 1j / (np.pi * d.tau_bar) * (sums[2] + (-1.0) ** n * 1j * q * sums[1])
        + d.gamma
    )
    F = d.beta0 + mapper.singular_part_F(z, d) - 1j * (-1.0) ** (n - 1) * q / np.pi * sums[0]

    def refuse(*args, **kwargs):
        raise AssertionError("the interior path evaluates q on its own")

    monkeypatch.setattr(mapper, "eval_q", refuse, raising=False)
    monkeypatch.setattr(branch_module, "eval_q", refuse)
    np.testing.assert_allclose(sm.omega_interior(z), omega, rtol=1e-14, atol=0)
    np.testing.assert_allclose(sm.F_interior(z), F, rtol=1e-14, atol=0)


def _far_and_near_targets(branch, rng):
    """3000 targets around the slits and 600 within 1e-6 to 1e-2 slit lengths of one."""
    k = np.asarray(branch.endpoints)
    span = k[-1] - k[0]
    far = rng.uniform(k[0] - span, k[-1] + span, 3000) + 1j * rng.uniform(-span, span, 3000)
    ends = np.reshape(k, (-1, 2))[rng.integers(branch.n, size=600)]
    length = ends[:, 1] - ends[:, 0]
    near = ends[:, 0] + length * rng.uniform(0.0, 1.0, 600) + 1j * (
        rng.choice([-1.0, 1.0], 600) * length * 10.0 ** rng.uniform(-6.0, -2.0, 600)
    )
    return np.concatenate([far, near])


def _sixteen_slit_solve_maps(count):
    return [pipeline.solve(*sixteen_slit_inputs()).slit_map for _ in range(count)]


@pytest.mark.parametrize("case", ["fig3a", "sixteen"])
def test_interior_values_do_not_depend_on_the_batch(case, monkeypatch):
    fresh = (
        _sixteen_slit_solve_maps(2) if case == "sixteen"
        else [solved_map(case)[0] for _ in range(2)]
    )
    sm = fresh[0]
    z = _far_and_near_targets(sm.branch, np.random.default_rng(5))
    for name in ("omega_interior", "F_interior"):
        evaluate = getattr(sm, name)
        whole = evaluate(z)
        scale = np.abs(whole).max()
        one_by_one = np.array([evaluate(t) for t in z])
        np.testing.assert_allclose(one_by_one, whole, rtol=0, atol=1e-14 * scale)
        with monkeypatch.context() as m:
            m.setattr(mapper, "_BLOCK_VALUES", 8)
            np.testing.assert_allclose(evaluate(z), whole, rtol=0, atol=1e-14 * scale)
    # the degree tables come from the map alone, whatever batch comes first
    other = fresh[1]
    other.F_interior(z[::-1][:7])
    other.omega_interior(z[-1])
    assert sm._degree_tables.keys() == other._degree_tables.keys() == {
        mapper.FAMILIES[mapper._PHI], mapper.FAMILIES[mapper._MAP]
    }
    for names, table in sm._degree_tables.items():
        assert table.D == other._degree_tables[names].D
        np.testing.assert_array_equal(table.thr, other._degree_tables[names].thr)


def test_solves_never_build_a_degree_table(monkeypatch):
    # the bisection for the interior split is paid on the first interior call
    calls = []
    build = mapper.degree_table
    monkeypatch.setattr(mapper, "degree_table", lambda *args: calls.append(args) or build(*args))
    for case in figures.FIGURE_CASES:
        cfg, loading, materials, free, numerics, overrides = load_figure_inputs(case.name)
        pipeline.solve(
            cfg, loading, materials, free, numerics,
            override_a=overrides.get("a"), override_rho=overrides.get("rho"),
        )
    sm = pipeline.solve(*slit_layout_inputs(16)).slit_map
    assert len(figures.FIGURE_CASES) == 16 and not calls
    sm.F_interior(0.3 + 0.5j)
    sm.omega_interior(0.3 + 0.5j)
    assert len(calls) == 2


def test_each_degree_table_build_is_logged_once(caplog, capsys):
    sm, _, _ = solved_map("fig3a")
    with caplog.at_level(logging.DEBUG, logger=mapper.__name__):
        for _ in range(2):
            sm.F_interior(0.3 + 0.5j)
            sm.omega_interior(np.array([0.3 + 0.5j, 2.0 - 1e-3j]))
    messages = [r.getMessage() for r in caplog.records if r.name == mapper.__name__]
    assert len(messages) == 2
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert messages[0].startswith("degree table for phi: D = ")
    assert messages[1].startswith("degree table for g0_rho+g1_weighted: D = ")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", ["fig1b", "fig4a"])
def test_F_interior_without_phi_rows_is_its_singular_part(name, monkeypatch):
    sm, derived, _ = solved_map(name)
    assert not sm._coef[mapper._PHI].any()
    z = _far_and_near_targets(sm.branch, np.random.default_rng(11))
    (total,), q = sm._off_sums(mapper._PHI, z)
    sign = (-1.0) ** (sm.branch.n - 1)
    summed = derived.beta0 + singular_part_F(z, derived) - 1j * sign * q / np.pi * total
    on_slit = np.append(z[:3], sm.branch.endpoints[0] + 0j)
    with pytest.raises(EvaluationError) as summed_error:
        sm._off_sums(mapper._PHI, on_slit)
    calls = []
    for kernel in ("slit_roots", "cauchy_off_stack"):
        monkeypatch.setattr(mapper, kernel, lambda *args: calls.append(args))
    assert (sm.F_interior(z) == summed).all()
    assert sm.F_interior(z[5]) == summed[5]
    with pytest.raises(EvaluationError) as short_error:
        sm.F_interior(on_slit)
    assert str(short_error.value) == str(summed_error.value)
    assert not calls


def test_solve_builds_the_map_on_the_period_table(monkeypatch):
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig3a")
    with monkeypatch.context() as m:
        m.setattr(mapper, "slit_table", lambda *args: pytest.fail("table rebuilt"))
        sm = pipeline.solve(cfg, loading, materials, free, numerics).slit_map
    rebuilt = SlitMap(sm.branch, sm.derived, sm.constants, sm.numerics)
    np.testing.assert_array_equal(sm._coef, rebuilt._coef)
    np.testing.assert_array_equal(sm._block_degree, rebuilt._block_degree)


def _edge_inputs(n):
    """A seeded n-slit layout with the pole 1e-3 of the span off a slit, kappa -> 1.

    The pole sits above the middle of a slit; for n = 2, which needs a real
    pole in the gap, 1e-3 of the span right of the first slit.  kappa is the
    largest float below 1 (kappa = 1 is refused).
    """
    cfg, loading, _, free, numerics = slit_layout_inputs(n, seed=n)
    slits = np.asarray(cfg.endpoints).reshape(n, 2)
    if n == 2:
        pole = complex(slits[0, 1] + 2e-3, 0.0)
    else:
        pole = complex(slits[n // 2].mean(), 2e-3)
    cfg = SlitConfiguration(slits.tolist(), pole)
    return cfg, loading, MaterialSet([np.nextafter(1.0, 0.0)] * n), free, numerics


@pytest.mark.parametrize("n", [2, 8, 16, 24])
def test_edge_interior_values_are_q_times_the_full_length_sums(n):
    sm = pipeline.solve(*_edge_inputs(n)).slit_map
    d = sm.derived
    z = _far_and_near_targets(sm.branch, np.random.default_rng(n))[::6]
    q = eval_q(sm.branch, z)
    sums = np.zeros((len(mapper.FAMILIES), z.size), dtype=complex)
    for f in range(len(mapper.FAMILIES)):
        for j, (a, b) in enumerate(sm.branch.slits):
            sums[f] += sm._weights[f, j] * cauchy_off(ChebyshevSeries(a, b, sm._coef[f, j]), z)
    omega = (
        mapper.singular_part_omega(z, d)
        - 1j / (np.pi * d.tau_bar) * (sums[2] + (-1.0) ** n * 1j * q * sums[1])
        + d.gamma
    )
    F = d.beta0 + mapper.singular_part_F(z, d) - 1j * (-1.0) ** (n - 1) * q / np.pi * sums[0]
    for got, expected in ((sm.omega_interior(z), omega), (sm.F_interior(z), F)):
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * scale)
    assert all(1 <= t.D <= sm._coef.shape[-1] for t in sm._degree_tables.values())


# -- scalar / array contract ---------------------------------------------------


@pytest.fixture(scope="module")
def evaluators():
    """name -> (evaluator, map from fractions in [0, 1] to admissible targets)."""
    sm, derived, _ = solved_map("fig1b")
    branch = sm.branch
    a, b = branch.slit(1)
    on = lambda s: a + (b - a) * s
    off = lambda s: 1.5 + s + (0.5 - s) * 1j
    series = cheb_coeffs(np.exp, a, b, 16, 12)
    return {
        "eval_q": (lambda t: eval_q(branch, t), off),
        "abs_q": (lambda t: abs_q(branch, t), on),
        "bank_value": (lambda t: bank_value(branch, t, 1, +1), on),
        "weight_factor": (lambda t: weight_factor(branch, t, 1), on),
        "singular_on": (lambda t: singular_on(series, t), on),
        "cauchy_off": (lambda t: cauchy_off(series, t), off),
        "g0": (lambda t: g0(t, 1, derived), on),
        "g1": (lambda t: sm.g1(t, 1), on),
        "omega_boundary": (lambda t: sm.omega_boundary(t, -1, 1), on),
        "omega_interior": (sm.omega_interior, off),
        "omega_regular": (sm.omega_regular, off),
        "F_boundary": (lambda t: sm.F_boundary(t, +1, 1), on),
        "F_interior": (sm.F_interior, off),
    }


EVALUATORS = (
    "eval_q", "abs_q", "bank_value", "weight_factor", "singular_on", "cauchy_off",
    "g0", "g1", "omega_boundary", "omega_interior", "omega_regular",
    "F_boundary", "F_interior",
)


@pytest.mark.parametrize("name", EVALUATORS)
def test_scalar_in_scalar_out_array_in_array_out(evaluators, name):
    fn, target = evaluators[name]
    scalar = fn(target(0.3))
    assert type(scalar) in (float, complex)
    for s in (np.array([0.2, 0.5, 0.7]), np.array([[0.1, 0.4, 0.6], [0.25, 0.5, 0.9]])):
        out = fn(target(s))
        assert isinstance(out, np.ndarray) and out.shape == s.shape
        expected = [fn(target(v)) for v in s.ravel()]
        np.testing.assert_allclose(out.ravel(), expected, rtol=1e-13, atol=1e-15)


# -- the stacked boundary pass --------------------------------------------------


def _one_series_per_slit_pair(sm, x, m):
    """Both banks of omega and F, and g_1, at x on slit m, one series at a time.

    Every (family, slit) density is its own ChebyshevSeries: the other
    slits go through the off-interval kernel, then the principal value on
    slit m is added (the order of the per-slit sums).
    """
    d, c = sm.derived, sm.constants
    sums = np.zeros((len(mapper.FAMILIES), len(x)))
    for f in range(len(mapper.FAMILIES)):
        series = [ChebyshevSeries(a, b, sm._coef[f, j]) for j, (a, b) in enumerate(sm.branch.slits)]
        for j, s in enumerate(series):
            if j != m:
                sums[f] += sm._weights[f, j] * cauchy_off(s, x).real
        sums[f] += sm._weights[f, m] * singular_on(series[m], x)
    absq = abs_q(sm.branch, x)
    g1 = absq / np.pi * sums[0]
    omega, F = [], []
    for bank in (+1, -1):
        sign = bank * (-1.0) ** m
        total = sums[2] + sign * absq * sums[1]
        local = np.pi * 1j * d.lam[m] * (g0(x, m, d) + c.rho_prime[m] + sign * g1)
        omega.append(
            mapper.singular_part_omega(x, d)
            - 1j / (np.pi * d.tau_bar) * (total + local) + d.gamma
        )
        F.append(
            d.beta0 + mapper.singular_part_F(x, d) + sign * g1
            + 1j * (c.a[m] - pole_density(x, d))
        )
    return np.array(omega), np.array(F), g1


def _sixteen_slit_map():
    return pipeline.solve(*sixteen_slit_inputs()).slit_map


@pytest.mark.parametrize("case", ["fig1b", "fig3a", "sixteen"])
def test_stacked_boundary_pass_matches_one_series_per_slit_pair(case):
    sm = _sixteen_slit_map() if case == "sixteen" else solved_map(case)[0]
    ends = np.array(sm.branch.slits)
    grid = bank_parameter_grid(ends[:, :1], ends[:, 1:], 41)
    stacked = sm.banks(grid)  # endpoints included: grid[:, 0] and grid[:, -1]
    for m in range(sm.branch.n):
        expected = _one_series_per_slit_pair(sm, grid[m], m)
        got = (stacked.omega[:, m], stacked.F[:, m], stacked.g1[m])
        for value, oracle in zip(got, expected):
            scale = np.abs(oracle).max()
            np.testing.assert_allclose(value, oracle, rtol=1e-13, atol=1e-13 * scale)
        for k, bank in enumerate((+1, -1)):
            np.testing.assert_array_equal(
                sm.omega_boundary(grid[m], bank, m), stacked.omega[k, m]
            )
            np.testing.assert_array_equal(sm.F_boundary(grid[m], bank, m), stacked.F[k, m])
        np.testing.assert_array_equal(sm.g1(grid[m], m), stacked.g1[m])


def test_stacked_boundary_pass_rejects_bad_tables():
    sm, _, _ = solved_map("fig1b")
    ends = np.array(sm.branch.slits)
    grid = bank_parameter_grid(ends[:, :1], ends[:, 1:], 9)
    with pytest.raises(EvaluationError):
        sm.banks(grid[:1])
    with pytest.raises(EvaluationError):
        sm.banks(grid[::-1])  # rows on the wrong slits


# -- per-block degrees of the boundary pass -------------------------------------


def _bank_grid(sm, P=41):
    ends = np.array(sm.branch.slits)
    return bank_parameter_grid(ends[:, :1], ends[:, 1:], P)  # endpoints included


@pytest.mark.parametrize("case", ["fig1b", "fig3a", "sixteen"])
def test_block_degrees_of_solved_maps_match_the_80_bit_degree(case):
    sm = _sixteen_slit_map() if case == "sixteen" else solved_map(case)[0]
    n = sm.branch.n
    grid = _bank_grid(sm)
    degree = sm._block_degree
    assert degree.shape == (len(mapper.FAMILIES), n, n)
    assert not degree[:, sm._rows, sm._rows].any()
    for i, j in zip(*np.nonzero(~np.eye(n, dtype=bool))):
        # the worst |w| of block (i, j) bounds |w_j| at every target on slit i
        w = np.abs(slit_roots(sm._lo[j : j + 1], sm._hi[j : j + 1], grid[i]).w)
        assert w.max() == sm._worst_w[i, j]
        for f in range(len(mapper.FAMILIES)):
            row = sm._coef[f, j : j + 1]
            low = tail_degree_80bit(row, sm._worst_w[i, j])
            high = tail_degree_80bit(row, sm._worst_w[i, j], 1.0 - 2.0**-39)
            assert low <= degree[f, i, j] <= high, (f, i, j)
    if case == "fig1b":  # all-zero phi rows sum no term
        assert not degree[0].any()


def _layout_inputs(n):
    """The seeded layout of n slits; for n = 2, which needs a real pole, with the pole mid-gap."""
    cfg, *rest = slit_layout_inputs(n, seed=n)
    if n == 2:
        cfg = SlitConfiguration(cfg.endpoints, 0.5 * (cfg.endpoints[1] + cfg.endpoints[2]))
    return (cfg, *rest)


@pytest.mark.parametrize("edge", [False, True], ids=["layout", "edge"])
@pytest.mark.parametrize("n", [2, 8, 16, 24, 32])
def test_boundary_sums_match_full_degree_80_bit_sums(n, edge):
    sm = pipeline.solve(*(_edge_inputs(n) if edge else _layout_inputs(n))).slit_map
    grid = _bank_grid(sm)
    coef, weights = sm._coef, sm._weights
    got = sm._slit_sums(mapper._ALL, grid, sm._rows)
    pv = weights[:, :, None] * singular_on_stack(coef, sm._centre, sm._half, grid)
    expected = pv.astype(np.longdouble)
    scale = np.abs(pv)
    for m in range(n):
        for j, (a, b) in enumerate(sm.branch.slits):
            if j == m:
                continue
            rho, w = slit_roots([a], [b], grid[m])
            powers = np.abs(w) ** np.arange(coef.shape[-1])[:, None]
            for f in range(len(mapper.FAMILIES)):
                full = cauchy_off_80bit(coef[f, j], a, b, grid[m]).real
                expected[f, m] += weights[f, j] * full
                scale[f, m] += np.pi * np.abs(weights[f, j] * (np.abs(coef[f, j]) @ powers / rho[0]))
    # truncation <= 2^-63 of each lead term; the rest is float64 rounding
    # of Horner loops of <= 64 terms and of the sums over the slits
    err = np.abs(got - expected).astype(float)
    assert np.all(err <= 2.0**-44 * scale)


def test_no_own_slit_block_is_formed(monkeypatch):
    sm = _sixteen_slit_map()
    n = sm.branch.n
    seen = []

    def spy(coef, lo, hi, x, degree):
        seen.append((lo, hi, x))
        return quadrature.cauchy_off_blocks(coef, lo, hi, x, degree)

    monkeypatch.setattr(mapper, "cauchy_off_blocks", spy)
    grid = _bank_grid(sm)
    sm.banks(grid)
    sm.g1(grid[5], 5)
    assert sum(len(lo) for lo, _, _ in seen) == n * (n - 1) + (n - 1)
    for lo, hi, x in seen:
        assert np.all((x < lo) | (x > hi))


def test_block_degrees_are_logged_once_per_map(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger=mapper.__name__):
        sm, _, _ = solved_map("fig3a")
        grid = _bank_grid(sm)
        for _ in range(2):
            sm.banks(grid)
            sm.g1(grid[1], 1)
    messages = [r.getMessage() for r in caplog.records if r.name == mapper.__name__]
    assert len(messages) == 1
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert messages[0].startswith("block degrees of the boundary pass: mean ")
    assert "of L = 64" in messages[0] and "% of the full loop" in messages[0]
    assert capsys.readouterr() == ("", "")


def _contours(args, monkeypatch, degrees=None, kernel=None):
    with monkeypatch.context() as patch:
        if degrees is not None:
            patch.setattr(mapper, "block_degrees", degrees)
        if kernel is not None:
            patch.setattr(mapper, "cauchy_off_blocks", kernel)
        result = pipeline.solve(*args)
    return result.verdict, [p.points for p in result.profiles]


def _full_degree(coef, w):
    """Every block to degree L: the boundary pass of the plain L-term loop."""
    return np.full((len(coef),) + np.shape(w), np.shape(coef)[-1])


def _blocks_80bit(coef, lo, hi, x, degree):
    """Every block to the full width of coef, in 80-bit arithmetic."""
    c = np.asarray(coef).astype(np.longdouble)
    long = [np.asarray(v).astype(np.longdouble) for v in (lo, hi, x)]
    rho, w = quadrature._roots(*long)
    total = np.zeros(c.shape[:-2] + w.shape, dtype=np.longdouble)
    for m in range(c.shape[-1] - 1, -1, -1):
        total = total * w + c[..., m, None]
    return (total * (-np.pi / rho)).astype(float)


def _largest_move(a, b):
    """Largest vertex move between two sets of contours, relative to each diameter."""
    return max(np.abs(p - q).max() / np.abs(p[:, None] - p[None]).max() for p, q in zip(a, b))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [16, 24, 32])
def test_block_degrees_move_contours_far_less_than_float64_rounding(n, seed, monkeypatch):
    # the alternating slit sums cancel, so float64 rounding of the full-degree
    # pass already moves the contours by 8e-12 (n = 16) to 2.4e-7 (n = 32) of
    # their diameter from the 80-bit sums; dropping the terms past each
    # block's degree must stay at least ten times below that
    args = slit_layout_inputs(n, seed)
    verdict, got = _contours(args, monkeypatch)
    full_verdict, full = _contours(args, monkeypatch, _full_degree)
    ref_verdict, ref = _contours(args, monkeypatch, _full_degree, _blocks_80bit)
    assert verdict == full_verdict == ref_verdict
    assert _largest_move(got, full) <= 0.1 * _largest_move(full, ref)
