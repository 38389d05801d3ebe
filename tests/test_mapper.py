import dataclasses
import logging

import numpy as np
import pytest
import scipy.fft
from conftest import (
    interior_field_inputs,
    load_figure_inputs,
    many_slits_docs,
    sixteen_slit_inputs,
    slit_layout_inputs,
    spread_layout_inputs,
)
from oracles import (
    all_family_g1_values,
    all_family_off_sums,
    all_family_other_sums,
    all_family_slit_sums,
    branch_principal_product,
    cauchy_off_80bit,
    cauchy_weighted,
    far_field_sums_80bit,
    full_degree_80_bit_sums,
    off_one_row,
    pv_one_row,
    slit_banks,
    smooth_weight,
    standard_chop as standard_chop_oracle,
    tail_degree_80bit,
    weighted_pv,
)

from inclusion_forge import branch as branch_module
from inclusion_forge import cli, figures, mapper, pipeline, quadrature, solvability
from inclusion_forge.branch import BranchData, abs_q
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
    singular_on_stack,
    slit_roots,
    truncation_indicator,
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
    np.testing.assert_allclose(slit_banks(sm, -xs, 0).g1, -slit_banks(sm, xs, 1).g1, atol=1e-13)
    # ... and genuinely odd with a complex scaling constant
    smc = _symmetric_complex_scaling_map()
    xs = np.linspace(0.35, 0.95, 9)
    assert np.abs(slit_banks(smc, xs, 1).g1).max() > 0.1
    np.testing.assert_allclose(slit_banks(smc, -xs, 0).g1, -slit_banks(smc, xs, 1).g1, atol=1e-13)


def test_g1_vanishes_at_endpoints():
    sm, _, _ = solved_map("fig1b")
    assert slit_banks(sm, 0.5, 1).g1 == 0.0
    assert slit_banks(sm, 1.0, 1).g1 == 0.0


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
        assert slit_banks(sm, xi, m).g1 == pytest.approx(oracle, abs=1e-6)


# -- omega ----------------------------------------------------------------


def test_central_symmetry_of_symmetric_pair():
    sm, _, _ = solved_map("fig2a")
    xs = np.linspace(0.22, 0.98, 11)
    right, left = slit_banks(sm, xs, 1).omega, slit_banks(sm, -xs, 0).omega
    for k in (0, 1):  # each bank of one slit against the other bank of the other
        np.testing.assert_allclose(right[k], -left[1 - k], atol=1e-12)
    # also with a complex scaling constant (nontrivial g_1 branch)
    smc = _symmetric_complex_scaling_map()
    xs = np.linspace(0.35, 0.95, 9)
    right, left = slit_banks(smc, xs, 1).omega, slit_banks(smc, -xs, 0).omega
    for k in (0, 1):
        np.testing.assert_allclose(right[k], -left[1 - k], atol=1e-12)


def test_endpoint_closure_is_exact():
    sm, _, _ = solved_map("fig1c")
    for m in (0, 1):
        for end in sm.branch.slit(m):
            top, bottom = slit_banks(sm, end, m).omega
            assert top == bottom


@pytest.mark.parametrize("name", ["fig1b", "fig3a", "fig4a"])
def test_interior_limit_reaches_boundary_values(name):
    sm, _, _ = solved_map(name)
    scale = max(
        abs(slit_banks(sm, sum(sm.branch.slit(m)) / 2, m).omega[0])
        for m in range(sm.branch.n)
    )
    for m in range(sm.branch.n):
        a, b = sm.branch.slit(m)
        pad = 0.05 * (b - a)
        xs = np.linspace(a + pad, b - pad, 9)
        top, bot = slit_banks(sm, xs, m).omega
        d1 = np.abs(sm.omega_interior(xs + 1e-4j) - top).max()
        d2 = np.abs(sm.omega_interior(xs + 5e-5j) - top).max()
        assert d1 < 1e-2 * max(scale, 1.0)
        assert d2 < d1
        assert np.abs(sm.omega_interior(xs - 1e-4j) - bot).max() < 1e-2 * max(scale, 1.0)


@pytest.mark.parametrize("case", ["eight", "sixteen", "thirty-two", "edge16"])
def test_interior_limit_reaches_boundary_values_from_four_slits_on(case, monkeypatch):
    # from four slits on, the targets at xi +- i eps h (h the slit length,
    # 5% to 95% along every slit) sum their slit's slit-local series, on the
    # slits that have them (8 of 8, 14 of 16, 19 of 32, 11 of edge16's 16);
    # as eps falls 1e-4 -> 1e-6 -> 1e-8 both banks of omega and of F
    # approach the bank pass like eps, 29x per step at the least (F on
    # thirty-two, whose q times phi keeps 2e-9 of its scale), and at
    # eps = 1e-8 Im F is a_m to 1.8e-10 ... 6.7e-10, and to 1.1e-7 on edge16
    # (criterion 06 asks 1e-6).  On edge16 the pole 2e-3 above the middle
    # slit leaves that slit's densities unresolved at N = 64: its interior
    # and bank values stay 2.9e-3 of the scale apart at every eps, through
    # the direct sums as well, so it is left out
    args = {
        "eight": lambda: slit_layout_inputs(8),
        "sixteen": lambda: slit_layout_inputs(16),
        "thirty-two": lambda: slit_layout_inputs(32),
        "edge16": lambda: _edge_inputs(16),
    }[case]()
    sm = pipeline.solve(*args).slit_map
    n = sm.branch.n
    slits = np.delete(np.arange(n), n // 2) if case == "edge16" else np.arange(n)
    lo, hi = np.array(sm.branch.slits).T
    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.05, 0.95, 9)
    banks = sm.banks(grid)
    scale = np.abs(banks.omega).max(), np.abs(banks.F).max()
    beside = sm._interior_rows().beside
    assert (beside.reach > 0).sum() >= n // 2
    served = []
    local = SlitMap._beside_sums
    monkeypatch.setattr(
        SlitMap, "_beside_sums", lambda self, fams, t, j: served.append(t.size) or local(self, fams, t, j)
    )
    previous = None
    for eps in (1e-4, 1e-6, 1e-8):
        z = grid + 1j * eps * (hi - lo)[:, None]
        served.clear()
        distance = []
        for name, value, s in (("omega_interior", banks.omega, scale[0]), ("F_interior", banks.F, scale[1])):
            for bank, targets in enumerate((z, z.conj())):
                distance.append((np.abs(getattr(sm, name)(targets) - value[bank])[slits] / s).max())
        assert served == [z[beside.reach > 0].size] * 4
        if previous is not None:
            assert all(d <= p / 10.0 for d, p in zip(distance, previous)), (eps, distance, previous)
        previous = distance
    assert np.abs(sm.F_interior(z).imag - sm.constants.a[:, None])[slits].max() < 1e-6


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
    top, bottom = slit_banks(sm, xs, 1).omega
    np.testing.assert_allclose(np.conj(top), bottom, atol=1e-14)


# -- F --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig1b", "fig3c", "fig4c"])
def test_imaginary_part_of_F_is_the_slit_constant(name):
    sm, _, constants = solved_map(name)
    for m in range(sm.branch.n):
        a, b = sm.branch.slit(m)
        xs = np.linspace(a + 0.03 * (b - a), b - 0.03 * (b - a), 9)
        for F in slit_banks(sm, xs, m).F:  # bank +1, then -1
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
    top = slit_banks(sm, xs, m).F[0]
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
    for j, (a, b) in enumerate(sm.branch.slits):
        # the message names the slit and where its boundary values come from
        message = rf"closed slit {j} = \[{a}, {b}\].*SlitMap\.banks"
        for x in (a, 0.3 * a + 0.7 * b, b):
            for z in (complex(x, 0.0), complex(x, -0.0)):
                with pytest.raises(EvaluationError, match=message):
                    evaluate(z)
                with pytest.raises(EvaluationError, match=message):
                    evaluate(np.array([2.0 + 1.0j, z]))
    # real targets in a gap and outside all slits are accepted
    k = sm.branch.endpoints
    x = np.array([0.5 * (k[1] + k[2]), 0.5 * (k[3] + k[4]), k[0] - 0.5, k[-1] + 0.5])
    for z in (x + 0j, np.conj(x + 0j)):
        assert np.all(np.isfinite(evaluate(z)))


def _plain_interior(sm, z):
    """omega and F off the slits from full-length per-slit sums of the plain rows and the 80-bit q."""
    d, n = sm.derived, sm.branch.n
    q = branch_principal_product(sm.branch.endpoints, z).astype(complex)
    sums = np.zeros((len(mapper.FAMILIES), z.size), dtype=complex)
    for f in range(len(mapper.FAMILIES)):
        for j, (a, b) in enumerate(sm.branch.slits):
            sums[f] += sm._weights[f, j] * off_one_row(sm._coef[f, j], a, b, z)
    omega = (
        mapper.singular_part_omega(z, d)
        - 1j / (np.pi * d.tau_bar) * (sums[2] + (-1.0) ** n * 1j * q * sums[1])
        + d.gamma
    )
    F = d.beta0 + mapper.singular_part_F(z, d) - 1j * (-1.0) ** (n - 1) * q / np.pi * sums[0]
    return omega, F


def _interior_80bit(sm, z):
    """omega and F off the slits from 80-bit full-length per-slit sums of the plain rows and the 80-bit q."""
    d, n = sm.derived, sm.branch.n
    q = branch_principal_product(sm.branch.endpoints, z)
    sums = np.zeros((len(mapper.FAMILIES), z.size), dtype=np.clongdouble)
    for f in range(len(mapper.FAMILIES)):
        for j, (a, b) in enumerate(sm.branch.slits):
            sums[f] += np.longdouble(sm._weights[f, j]) * cauchy_off_80bit(sm._coef[f, j], a, b, z)
    map_sums = (sums[2] + (-1.0) ** n * 1j * q * sums[1]).astype(complex)
    omega = mapper.singular_part_omega(z, d) - 1j / (np.pi * d.tau_bar) * map_sums + d.gamma
    F = d.beta0 + mapper.singular_part_F(z, d) - 1j * (-1.0) ** (n - 1) * (q * sums[0]).astype(complex) / np.pi
    return omega, F


def _beside_targets(sm, z):
    """Which targets z sum the slit-local series of the slit between the gap midpoints around them."""
    beside = sm._interior_rows().beside
    if beside is None:
        return np.zeros(z.shape, dtype=bool)
    slit = np.searchsorted(sm.branch.gaps, z.real)
    return np.abs(z - sm._lo[slit]) + np.abs(z - sm._hi[slit]) <= beside.reach[slit]


def _hull_w(sm, z):
    """w = 1/(x + sqrt(x - 1) sqrt(x + 1)) at z mapped onto the hull [lo_0, hi_{n-1}] as x."""
    k = np.asarray(sm.branch.endpoints)
    x = (z - 0.5 * (k[0] + k[-1])) / (0.5 * (k[-1] - k[0]))
    return 1.0 / (x + np.sqrt(x - 1.0) * np.sqrt(x + 1.0))


def _series_interior(sm, z):
    """omega and F at targets z from the far-field series, numpy's polyval at w = 1/(x + sqrt(x - 1) sqrt(x + 1)).

    Also |w|, x being z mapped onto the hull [lo_0, hi_{n-1}]; a target is
    served by the series where |w| <= 1/2.
    """
    d, w = sm.derived, _hull_w(sm, z)
    regular, phi_term = (np.polynomial.polynomial.polyval(w, sm._far_series(f)) for f in (mapper._MAP, mapper._PHI))
    omega = mapper.singular_part_omega(z, d) + regular
    return omega, d.beta0 + mapper.singular_part_F(z, d) - phi_term, np.abs(w)


def test_interior_values_are_q_times_the_cauchy_sums_without_eval_q():
    # the 32 targets the far-field series serve read the series, which meet
    # the 80-bit sums to 3.1e-16 of their largest value; there the plain sums
    # cancel and read 1.1e-12 (omega 7.7e-13 relative off at 40 + 30j)
    sm, _, _ = solved_map("fig3a")
    z = np.linspace(-1.8, 1.8, 9)[:, None] + 1j * np.array([-1.2, -0.03, 1e-6, 0.4, 2.0])
    z = np.concatenate([z.ravel(), [0.3 + 0.0j, -2.5 - 0.0j, 40.0 + 30.0j]])
    omega, F = _plain_interior(sm, z)
    series_omega, series_F, w = _series_interior(sm, z)
    far = w <= 0.5
    assert 0 < far.sum() < far.size
    omega[far], F[far] = series_omega[far], series_F[far]
    direct, served = _far_field_error(sm, load_figure_inputs("fig3a")[3], z[far])
    assert served <= 1e-15 and served <= direct
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
    # the batch mixes targets the far-field series serve with targets summed
    # directly, and with band targets, which pass the band series in blocks
    w = _series_interior(sm, z)[2]
    assert (w <= 0.5).any() and (w > 0.5).any() and ((w > 0.5) & (w <= 0.8)).any()
    # the degree table comes from the map alone, whatever batch comes first
    other = fresh[1]
    other.F_interior(z[::-1][:7])
    other.omega_interior(z[-1])
    # (one table over every row of a map with four or more slits; a map
    # below _BALANCED_FROM slits keeps none)
    table, other_table = sm._interior.table, other._interior.table
    assert (table is None) == (other_table is None) == (case == "fig3a")
    if table is not None:
        assert table.D == other_table.D
        np.testing.assert_array_equal(table.thr, other_table.thr)
    # and so do the far-field series, at any n
    assert sm._far.keys() == other._far.keys()
    for key, series in sm._far.items():
        assert series is not None
        np.testing.assert_array_equal(series, other._far[key])


def test_solves_never_build_a_degree_table(monkeypatch):
    # the bisection for the interior split, the samples of the slit-local
    # series and the ring samples of the far-field and band series are paid
    # on the first interior call
    calls, series, beside = [], [], []
    build, far, local = mapper.degree_table, SlitMap._far_series, SlitMap._beside_series
    monkeypatch.setattr(mapper, "degree_table", lambda *args: calls.append(args) or build(*args))
    monkeypatch.setattr(SlitMap, "_far_series", lambda self, *args: series.append(args) or far(self, *args))
    monkeypatch.setattr(SlitMap, "_beside_series", lambda self, *args: beside.append(args) or local(self, *args))
    maps = []
    for case in figures.FIGURE_CASES:
        cfg, loading, materials, free, numerics, overrides = load_figure_inputs(case.name)
        maps.append(pipeline.solve(
            cfg, loading, materials, free, numerics,
            override_a=overrides.get("a"), override_rho=overrides.get("rho"),
        ).slit_map)
    sm = pipeline.solve(*slit_layout_inputs(16)).slit_map
    assert len(figures.FIGURE_CASES) == 16 and not calls and not series and not beside
    assert not any(m._far or m._band or m._interior for m in maps + [sm] if m is not None)
    sm.F_interior(0.3 + 0.5j)
    sm.omega_interior(0.3 + 0.5j)
    # one table per map, over the plain and the balanced rows of every family,
    # and one set of slit-local series
    assert len(calls) == 1 and sm._interior.table is not None
    assert len(beside) == 1 and sm._interior.beside is not None
    # one series per family set, and no band series from four slits on
    assert len(sm._far) == 2 and all(s is not None for s in sm._far.values()) and not sm._band
    # below four slits a band series per family set, and no slit-local series
    fig3a = solved_map("fig3a")[0]
    fig3a.omega_interior(0.3 + 0.5j)
    fig3a.F_interior(0.3 + 0.5j)
    assert len(fig3a._band) == 2 and all(s is not None for s in fig3a._band.values())
    assert fig3a._interior.beside is None and len(beside) == 1


def _root_spies(monkeypatch):
    """Spies on the slit roots the off-slit sums form: (intervals, targets) of each call, by function.

    ``slit_roots`` pairs every interval with every target; ``pair_roots``
    pairs interval i with target i.
    """
    calls = {"slit_roots": [], "pair_roots": []}
    for name, seen in calls.items():
        roots = getattr(quadrature, name)
        monkeypatch.setattr(mapper, name, lambda lo, hi, t, roots=roots, seen=seen: seen.append(
            (np.size(lo), np.size(t))) or roots(lo, hi, t))
    return calls


def test_a_sixteen_slit_interior_call_forms_one_root_per_beside_target(monkeypatch):
    doc, z = next((doc, z) for doc, z in interior_field_inputs(0) if doc["n"] == 16)
    sm = pipeline.solve(*cli.parse_config(doc)[:5]).slit_map
    sm.omega_interior(z[:1]), sm.F_interior(z[:1])  # the series
    far = np.abs(_hull_w(sm, z)) <= 1.0 / mapper._FAR_RATIO
    beside = _beside_targets(sm, z) & ~far
    assert not (_beside_targets(sm, z) & far).any()
    assert 1600 <= beside.sum() <= 2200  # the targets hugging a slit with series
    served = []
    local = SlitMap._beside_sums
    monkeypatch.setattr(SlitMap, "_beside_sums", lambda self, fams, t, j: served.append(t) or local(self, fams, t, j))
    calls = _root_spies(monkeypatch)
    for evaluate in (sm.omega_interior, sm.F_interior):
        served.clear()
        for seen in calls.values():
            seen.clear()
        evaluate(z)
        # one root of its own slit per beside target, n per target summed directly
        assert calls["pair_roots"] and all(rows == t for rows, t in calls["pair_roots"])
        assert sum(t for _, t in calls["pair_roots"]) == beside.sum()
        assert all(rows == sm.branch.n for rows, _ in calls["slit_roots"])
        assert sum(t for _, t in calls["slit_roots"]) == (~far & ~beside).sum()
        assert np.array_equal(np.sort_complex(np.concatenate(served)), np.sort_complex(z[beside]))


def test_band_targets_below_four_slits_form_no_root(monkeypatch):
    sm = solved_map("fig3a")[0]
    z = _far_targets(sm, np.random.default_rng(9), (0.51, 0.79))
    assert not _beside_targets(sm, z).any()
    got = sm.omega_interior(z), sm.F_interior(z)  # the series
    calls = _root_spies(monkeypatch)
    for value, evaluate in zip(got, (sm.omega_interior, sm.F_interior)):
        np.testing.assert_array_equal(evaluate(z), value)
    assert calls == {"slit_roots": [], "pair_roots": []}
    # and one target past |w| = 4/5 forms its three
    sm.omega_interior(np.append(z, _far_targets(sm, np.random.default_rng(9), (0.81, 0.99), 1)))
    assert calls["slit_roots"] == [(3, 1)] and not calls["pair_roots"]


def test_each_degree_table_build_is_logged_once(caplog, capsys):
    (sm,) = _sixteen_slit_solve_maps(1)
    with caplog.at_level(logging.DEBUG, logger=mapper.__name__):
        for _ in range(2):
            sm.F_interior(0.3 + 0.5j)
            sm.omega_interior(np.array([0.3 + 0.5j, 2.0 - 1e-3j]))
    messages = [r.getMessage() for r in caplog.records if r.name == mapper.__name__]
    # the far-field series of each family set samples a ring through the
    # map's one degree table, and logs its own build once, and so do the
    # slit-local series, sampled on the map's first interior call
    tables = [m for m in messages if m.startswith("degree table ")]
    series = [m for m in messages if m.startswith("far-field series for ")]
    beside = [m for m in messages if m.startswith("slit-local series beside ")]
    assert len(tables) == 1 and sm._interior.table is not None
    n, served = sm.branch.n, (sm._interior.beside.reach > 0).sum()
    assert len(beside) == 1 and beside[0].startswith(f"slit-local series beside {served} of {n} slits: K = ")
    assert 0 < served
    assert len(series) == len(sm._far) == 2 and len(messages) == 4
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert tables[0].startswith(f"degree table of the off-slit rows: D = {sm._interior.table.D} of L = ")
    for message, names in zip(series, ("phi", "g0_rho+g1_weighted")):
        terms = len(sm._far[tuple(names.split("+"))])
        assert message.startswith(f"far-field series for {names}: {terms} terms, ring chopped at ")
        assert message.endswith(f" of {mapper._ring_samples(mapper._FAR_RATIO)}, at |w| <= 0.5 of the hull")
    assert capsys.readouterr() == ("", "")


def _split_rows(sm):
    """The map's plain rows with their degree table: the split forced below four slits."""
    interior = sm._interior_rows()
    (rows,) = interior.rows
    return interior._replace(table=quadrature.degree_table(rows, sm._lo, sm._hi))


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_the_interior_split_starts_at_four_slits(seed, monkeypatch):
    # below _BALANCED_FROM slits every off-slit sum is the plain loop, which
    # agrees with the split to rounding; from four slits on the split runs
    tables, builds = [], []
    stack, build = mapper.cauchy_off_stack, mapper.degree_table
    monkeypatch.setattr(mapper, "cauchy_off_stack", lambda *args: tables.append(args[2]) or stack(*args))
    monkeypatch.setattr(mapper, "degree_table", lambda *args: builds.append(args) or build(*args))
    sizes = set()
    for doc, z in interior_field_inputs(seed):
        sm = pipeline.solve(*cli.parse_config(doc)[:5]).slit_map
        tables.clear()
        builds.clear()
        sm.omega_interior(z)
        sm.F_interior(z)
        n = sm.branch.n
        sizes.add(n)
        if n >= mapper._BALANCED_FROM:
            assert len(builds) == 1 and all(t is sm._interior.table for t in tables)
            assert isinstance(sm._interior.table, quadrature.DegreeTable)
            continue
        assert tables and all(t is None for t in tables)
        assert not builds and sm._interior.table is None
        # the far-field series need no table: they serve every map whose moments are at rounding
        assert sm._far and all(series is not None for series in sm._far.values())
        with monkeypatch.context() as m:
            m.setattr(SlitMap, "_far_series", _no_series)  # every target through the Cauchy sums
            plain = sm.omega_interior(z), sm.F_interior(z)
            tables.clear()
            m.setattr(sm, "_interior", _split_rows(sm))
            split = sm.omega_interior(z), sm.F_interior(z)
        assert all(isinstance(t, quadrature.DegreeTable) for t in tables)
        for value, want in zip(plain, split):
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-14 * np.abs(want).max())
    assert sizes == {2, 3, 16}


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
        m.setattr(mapper, "period_matrix", lambda *args: pytest.fail("period matrix rebuilt"))
        sm = pipeline.solve(cfg, loading, materials, free, numerics).slit_map
    rebuilt = SlitMap(sm.branch, sm.derived, sm.constants, sm.numerics)
    np.testing.assert_array_equal(sm._coef, rebuilt._coef)
    np.testing.assert_array_equal(sm._block_degree, rebuilt._block_degree)


def test_a_solve_and_one_interior_call_build_two_gap_bases(monkeypatch):
    built = []
    basis = solvability.gap_basis

    def spy(branch, table):
        built.append(table.N)
        return basis(branch, table)

    monkeypatch.setattr(solvability, "gap_basis", spy)
    monkeypatch.setattr(mapper, "gap_basis", spy, raising=False)
    sm = pipeline.solve(*sixteen_slit_inputs()).slit_map
    sm.omega_interior(np.array([2.0 + 1.0j]))
    assert sm._interior_rows()[1].any()  # the balanced rows were tested against the basis
    # the period matrix's table, then the residuals' table of twice its nodes
    assert built == [sm.numerics.N, 2 * sm.numerics.N]


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
    z = _far_and_near_targets(sm.branch, np.random.default_rng(n))
    if n >= mapper._BALANCED_FROM:
        # the plain sums cancel at the far targets, which meet the 80-bit
        # solve in test_far_field_sums_match_an_80_bit_solve instead
        z = z[3000:]
    z = z[::6]
    omega, F = _plain_interior(sm, z)
    for got, expected in ((sm.omega_interior(z), omega), (sm.F_interior(z), F)):
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * scale)
    # from four slits on, targets beside a slit sum its slit-local series
    assert _beside_targets(sm, z).any() == (n >= mapper._BALANCED_FROM)
    table = sm._interior.table
    assert (table is None) == (n < mapper._BALANCED_FROM)
    assert table is None or 1 <= table.D <= sm._coef.shape[-1]


@pytest.mark.parametrize("case", ["layout0", "edge16"])
def test_the_off_slit_kernel_starts_past_zero_terms_only(case, monkeypatch):
    # each pass of the off-slit kernel starts its Horner loop at its longest
    # row's last nonzero term: every call of an interior pass, the samples of
    # the slit-local series among them, equals the loop from term L - 1 bit
    # for bit
    if case == "layout0":
        doc, z = next((doc, z) for doc, z in interior_field_inputs(0) if doc["n"] == 16)
        args = cli.parse_config(doc)[:5]
    else:
        args = _edge_inputs(16)
        z = _far_and_near_targets(pipeline.solve(*args).slit_map.branch, np.random.default_rng(16))
    sm = pipeline.solve(*args).slit_map
    kernel, calls = quadrature.cauchy_off_stack, []

    def spy(coef, roots, table=None):
        got = kernel(coef, roots, table)
        np.testing.assert_array_equal(got, _longest_row_kernel(coef, roots, table))
        calls.append(table is not None)
        return got

    monkeypatch.setattr(mapper, "cauchy_off_stack", spy)
    sm.omega_interior(z)
    sm.F_interior(z)
    assert len(calls) >= 3 and all(calls)


def _longest_row_kernel(coef, roots, table):
    """cauchy_off_stack as its loop ran with every family from the pass's longest row, term L - 1."""
    coef = np.asarray(coef)
    rho, w = roots
    R, L = len(rho), coef.shape[-1]
    w = w.reshape(R, -1)
    D = L if table is None else table.D
    total = np.empty(coef.shape[:-1] + w.shape[-1:], dtype=np.result_type(coef, w))
    total[...] = coef[..., D - 1, None]
    if D < L:
        row, col = np.nonzero(np.abs(w) > table.thr[:, None])
        high = coef[..., row, L - 1].astype(total.dtype)
        for k in range(L - 2, D - 1, -1):
            high *= w[row, col]
            high += coef[..., row, k]
        high *= w[row, col]
        total[..., row, col] += high
    for m in range(D - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    total *= np.divide(-np.pi, rho.reshape(R, -1))
    return total.reshape(coef.shape[:-1] + rho.shape[1:])


@pytest.mark.parametrize("case", ["layout0", "eight", "edge16", "thirty-two"])
def test_slit_local_series_keep_the_digits_of_the_direct_sums_out_to_their_reach(case):
    # the coefficients' rounding grows like rho^K in the Bernstein ellipse
    # of parameter rho; at the reach rho_s of each slit that growth is 4, so
    # on the edge of the reach omega and F stay within 4 times the plain
    # sums' own distance from the 80-bit sums (or 4 rounding units of the
    # scale): measured up to 1.5x on layout0 (13 of 16 slits with series),
    # 1.56x on eight, 1.14x on edge16 (11 of 16) and 1.2x on thirty-two
    # (19 of 32), where the plain sums read 2e-16 ... 4e-14 of the scale
    args = {
        "layout0": _layout0_inputs,
        "eight": lambda: slit_layout_inputs(8),
        "edge16": lambda: _edge_inputs(16),
        "thirty-two": lambda: slit_layout_inputs(32),
    }[case]()
    sm = pipeline.solve(*args).slit_map
    beside = sm._interior_rows().beside
    slits = np.flatnonzero(beside.reach > 0)
    assert len(slits) >= sm.branch.n // 2
    # 24 targets around each slit on the ellipse of its reach, just inside
    theta = np.linspace(0.1, 2.0 * np.pi - 0.1, 24)
    major = 0.5 * beside.reach[slits, None] * (1.0 - 1e-12)
    minor = np.sqrt(major**2 - sm._half[slits, None] ** 2)
    z = (sm._centre[slits, None] + major * np.cos(theta) + 1j * minor * np.sin(theta)).ravel()
    assert _beside_targets(sm, z).all()
    got = sm.omega_interior(z), sm.F_interior(z)
    for value, want, plain in zip(got, _interior_80bit(sm, z), _plain_interior(sm, z)):
        floor = max(np.abs(plain - want).max(), 2.0**-52 * np.abs(want).max())
        assert np.abs(value - want).max() <= 4.0 * floor


def _layout0_inputs():
    """The n = 16 layout the benchmark's interior_field workload evaluates."""
    doc = next(doc for doc, _ in interior_field_inputs(0) if doc["n"] == 16)
    return cli.parse_config(doc)[:5]


@pytest.mark.parametrize("case", ["layout0", "edge16", "spread16"])
def test_the_one_degree_table_serves_every_row_it_is_used_for(case):
    # the plain and the balanced rows of every family share the map's one
    # table: at |w| = thr[j] no row of slit j needs more than D terms, by the
    # rule the table is built from
    args = {
        "layout0": _layout0_inputs,
        "edge16": lambda: _edge_inputs(16),
        "spread16": lambda: spread_layout_inputs(16, 3),
    }[case]()
    sm = pipeline.solve(*args).slit_map
    rows, flags, _, table, _ = sm._interior_rows()
    assert len(rows) == 2 and flags.tolist() == [True, True, False]
    np.testing.assert_array_equal(rows[1][..., : sm._coef.shape[-1]], sm._coef)
    assert not rows[1][..., sm._coef.shape[-1] :].any()
    for coef in (sm._coef, rows[0]):
        degrees = quadrature.block_degrees(coef, table.thr[None])
        assert degrees.shape == (len(mapper.FAMILIES), 1, sm.branch.n)
        assert (degrees <= table.D).all()


def _far_field_error(sm, free, z):
    """Largest distances of q times the phi and g0_rho sums from the 80-bit solve-and-sum.

    One from the Cauchy sums, one through the path the evaluators take,
    the far-field series where a target has one: there q times the phi sum
    is F's q-term over i (-1)^(n-1) / pi, and q times the g0_rho sum comes
    from the map's regular part less the g1_weighted sum.  Each is relative
    to the largest 80-bit value, over the families that keep terms (a phi
    that keeps none sums to 0 on both sides).
    """
    n, d = sm.branch.n, sm.derived
    (phi,), q = sm._off_sums(mapper._PHI, z)
    (g0_rho, g1), _ = sm._off_sums(mapper._MAP, z)
    total = 1j * np.pi * d.tau_bar * (sm._regular(mapper._MAP, z) - d.gamma)
    served = (sm._regular(mapper._PHI, z) * np.pi / (1j * (-1.0) ** (n - 1)), (total - g1) / ((-1.0) ** n * 1j))
    want = far_field_sums_80bit(sm.branch.endpoints, sm.derived, free, z, N=sm.numerics.N)
    live = np.flatnonzero(sm._live[mapper._DIRECT])
    return tuple(
        max(np.abs(path[f] - want[f]).max() / np.abs(want[f]).max() for f in live)
        for path in ((q * phi, q * g0_rho), served)
    )


@pytest.mark.parametrize(
    ("case", "bound"),
    [("sixteen", 1e-7), (8, 1e-10), (16, 1e-5), ("fig1b", 2e-15), ("fig3a", 2e-15), ("fig3c", 2e-15), ("fig3d", 2e-15)],
)
def test_far_field_sums_match_an_80_bit_solve(case, bound):
    # off the slits q ~ zeta^n multiplies sums that cancel to zeta^-n: summed
    # plainly they read 5.4e-5 (sixteen), 1.6e-9 and 3.0e-4 (the n = 8 and 16
    # edge layouts) off the 80-bit sums on these rings; the balanced rows
    # 4.2e-9, 2.1e-12 and 6.2e-7, and the far-field series, which serves
    # every target of these rings, the same.  Below four slits the plain rows
    # are the direct path: they read 8.6e-16 (fig1b, n = 2), 4.7e-15, 1.3e-14
    # and 4.8e-15 (fig3a, c and d, n = 3), and the series, sampled from them,
    # 1.7e-16, 2.4e-16, 5.8e-16 and 4.0e-16.  On the ellipses |w| = 0.6 and
    # 0.75 of the band series the direct sums read 3.7e-16, 9.3e-16, 2.0e-15
    # and 7.4e-16, the band series 2.8e-16, 4.5e-16, 6.1e-16 and 5.2e-16
    if case == "sixteen":
        args = sixteen_slit_inputs()
    else:
        args = _edge_inputs(case) if isinstance(case, int) else load_figure_inputs(case)[:5]
    sm = pipeline.solve(*args).slit_map
    assert sm._interior_rows()[1].tolist() == [True, True, False]
    # a phi that keeps no term (fig1b) gets no series: F is its singular part
    assert all((sm._far_series(fams) is not None) == sm._live[fams.start] for fams in (mapper._PHI, mapper._MAP))
    k = np.asarray(sm.branch.endpoints)
    centre, half = 0.5 * (k[0] + k[-1]), 0.5 * (k[-1] - k[0])
    ring = np.exp(2j * np.pi * np.arange(16) / 16 + 0.1j)
    z = np.concatenate([centre + r * half * ring for r in (1.5, 2.0)])
    direct, served = _far_field_error(sm, args[3], z)
    assert served <= bound
    # the series must be no farther off than the direct path, which below
    # four slits cancels in the plain rows
    assert direct <= bound if sm.branch.n >= mapper._BALANCED_FROM else served <= direct
    if sm.branch.n < mapper._BALANCED_FROM:
        w = np.concatenate([r * ring for r in (0.6, 0.75)])
        band = centre + 0.5 * half * (w + 1.0 / w)
        direct, served = _far_field_error(sm, args[3], band)
        assert served <= bound and served <= direct


def test_balanced_rows_are_the_plain_rows_times_the_gap_polynomial():
    # numpy's Chebyshev product of each row with omega expanded on its slit
    sm = pipeline.solve(*slit_layout_inputs(8, 0)).slit_map
    got = sm._times_gap_poly(sm._coef[mapper._DIRECT])
    for j in range(sm.branch.n):
        centre, half = sm._centre[j], sm._half[j]
        gaps = sm.branch.gaps
        omega = np.polynomial.Chebyshev.fromroots((gaps - centre) / half) * half ** len(gaps)
        for f in range(2):
            want = np.polynomial.chebyshev.chebmul(sm._coef[f, j], omega.coef)
            scale = np.abs(want).max()
            np.testing.assert_allclose(got[f, j, : len(want)], want, rtol=0, atol=1e-14 * scale)
            assert not got[f, j, len(want) :].any()


def _omega_level_targets(sm, count=7):
    """Points where |omega| equals its largest modulus on the slits, on rays above the centre."""
    k = np.asarray(sm.branch.endpoints)
    centre, half = 0.5 * (k[0] + k[-1]), 0.5 * (k[-1] - k[0])
    omega = lambda z: np.abs(np.prod(z[:, None] - sm.branch.gaps, axis=-1))
    ray = np.exp(1j * np.linspace(0.2, np.pi - 0.2, count))
    lo, hi = np.zeros(count), np.full(count, 3.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = omega(centre + mid * half * ray) < sm._interior_rows().omega_max
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return centre, centre + hi * half * ray


@pytest.mark.parametrize("case", ["sixteen", 8])
def test_targets_where_omega_is_below_its_slit_maximum_keep_the_plain_rows(case, monkeypatch):
    args = sixteen_slit_inputs() if case == "sixteen" else slit_layout_inputs(case, 0)
    sm = pipeline.solve(*args).slit_map
    assert sm._interior_rows()[1].tolist() == [True, True, False]
    centre, level = _omega_level_targets(sm)
    sides = {"plain": centre + 0.99 * (level - centre), "balanced": centre + 1.01 * (level - centre)}
    for fams in (mapper._PHI, mapper._MAP):  # the ring samples of the series sum both kinds of rows
        assert sm._far_series(fams) is not None
    kernel = mapper.cauchy_off_stack
    for side, z in sides.items():
        rows = []
        monkeypatch.setattr(
            mapper, "cauchy_off_stack", lambda coef, *a: rows.append(coef) or kernel(coef, *a)
        )
        got = sm.omega_interior(z), sm.F_interior(z)
        monkeypatch.undo()
        plain_rows = [np.shares_memory(c, sm._interior.rows[1]) for c in rows]
        assert all(plain_rows) if side == "plain" else not any(plain_rows), side
        # both sides keep 10 digits of the plain sums and of the 80-bit ones
        for value, want in zip(got, _plain_interior(sm, z)):
            assert np.abs(value - want).max() <= 1e-10 * np.abs(want).max(), side
        assert max(_far_field_error(sm, args[3], z)) <= 1e-10, side
    # omega vanishes at the gap nodes themselves: real targets there take the plain rows
    z = sm.branch.gaps.astype(complex)
    for value, want in zip((sm.omega_interior(z), sm.F_interior(z)), _plain_interior(sm, z)):
        assert np.abs(value - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shift", [1e-11, 0.1])
def test_moments_above_rounding_keep_the_plain_rows(shift, monkeypatch):
    # the balanced rows differ from the plain sums by the moments of the plain
    # rows; a shift of 1e-11 leaves the boundedness residual inside tol_solve
    # but far above rounding, and near the slits it would move the values by
    # more than the plain sums' rounding
    args = slit_layout_inputs(8, 0)
    a = pipeline.solve(*args).slit_map.constants.a
    shifted = a + shift * np.abs(a).max() * np.cos(np.arange(len(a)))
    result = pipeline.solve(*args, override_a=shifted)
    sm = result.slit_map
    assert (result.diagnostics.boundedness["a_relative"] <= sm.numerics.tol_solve) == (shift < 1e-8)
    assert sm._interior_rows()[1].tolist() == [False, True, False]
    z = _far_and_near_targets(sm.branch, np.random.default_rng(3))[3000:]
    for value, want in zip((sm.omega_interior(z), sm.F_interior(z)), _plain_interior(sm, z)):
        assert np.abs(value - want).max() <= 1e-13 * np.abs(want).max()
    # nor does F take a far-field series, which would be bounded where F is not:
    # its far targets are summed directly, while the map, whose g0_rho rows are
    # balanced, takes its series
    assert sm._far_series(mapper._PHI) is None and sm._far_series(mapper._MAP) is not None
    far = _far_targets(sm, np.random.default_rng(4))
    got = sm.F_interior(far)
    monkeypatch.setattr(SlitMap, "_far_series", _no_series)
    np.testing.assert_array_equal(got, sm.F_interior(far))


def _broken_rho_map(sm, shift=0.1):
    """A map of sm's layout and constants with rho_1 off its solved value by ``shift``."""
    rho_bad = sm.constants.rho.copy()
    rho_bad[1] += shift
    return SlitMap(sm.branch, sm.derived, build_constants(sm.constants.a, rho_bad, sm.derived), sm.numerics)


def _regular_growth(sm):
    """How much further the regular part moves from 1e2 to 1e4 than from 1e2 to 1e3 out."""
    ray = np.exp(1j * np.pi / 7)
    ref = sm.omega_regular(1e2 * ray)
    return abs(sm.omega_regular(1e4 * ray) - ref) / abs(sm.omega_regular(1e3 * ray) - ref)


def test_broken_rho_makes_the_regular_part_grow_from_four_slits_on():
    # with rho broken the g0_rho moments are off rounding: the map keeps no
    # far-field series, which would be bounded, and its regular part grows
    sm = pipeline.solve(*slit_layout_inputs(8, 0)).slit_map
    smb = _broken_rho_map(sm)
    assert _regular_growth(smb) >= 10.0
    assert not smb._interior_rows()[1][1] and smb._far_series(mapper._MAP) is None
    assert sm._far_series(mapper._MAP) is not None


@pytest.mark.parametrize(("name", "shift"), [("fig1b", 0.1), ("fig3a", 0.1), ("fig1b", 1e-11), ("fig2d", None)])
def test_moments_off_rounding_keep_the_direct_sums_below_four_slits(name, shift, solve_figure, monkeypatch):
    # the moment test gates the far-field series at every n: with rho broken
    # on fig1b (n = 2) and fig3a (n = 3), and with the overridden constants of
    # fig2d (n = 2), the g0_rho moments are off rounding, so the map keeps no
    # series; every target of the map is summed directly, bit for bit.  By
    # 0.1, and on fig2d, the regular part grows (like zeta on fig1b and fig2d,
    # like zeta^2 on fig3a) and leaves the ring no plateau either; by 1e-11 it
    # leaves one, and only the moment test refuses a series 1.6e-10 off the
    # direct sums.  F keeps its series where phi keeps terms (fig3a): a is not broken
    sm = solve_figure(name).slit_map
    if shift is not None:
        assert sm._far_series(mapper._MAP) is not None
        sm = _broken_rho_map(sm, shift)
    assert not sm._interior_rows()[1][1] and sm._far_series(mapper._MAP) is None
    assert (sm._far_series(mapper._PHI) is not None) == sm._live[0] == (name == "fig3a")
    if shift != 1e-11:
        assert _regular_growth(sm) >= 10.0
    far = _far_targets(sm, np.random.default_rng(6))
    got = sm.omega_interior(far), sm.omega_regular(far)
    monkeypatch.setattr(SlitMap, "_far_series", _no_series)
    for value, want in zip(got, (sm.omega_interior(far), sm.omega_regular(far))):
        np.testing.assert_array_equal(value, want)


def _no_series(self, fams, ratio=mapper._FAR_RATIO):
    """SlitMap._far_series of a map that sums every target directly."""
    return None


def _far_targets(sm, rng, radii=(0.01, 0.49), count=600):
    """Targets with |w| in ``radii`` in the hull's variable; below 1/2 a far-field series serves them.

    Targets within 0.2 hull half-lengths of a finite pole preimage are left out.
    """
    k = np.asarray(sm.branch.endpoints)
    centre, half = 0.5 * (k[0] + k[-1]), 0.5 * (k[-1] - k[0])
    w = rng.uniform(*radii, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    z = centre + 0.5 * half * (w + 1.0 / w)
    return z if sm.derived.pole_at_infinity else z[np.abs(z - sm.derived.zeta_inf) >= 0.2 * half]


# solve inputs, and the bound on the series' distance from the direct sums
_FAR_CASES = {
    "sixteen": (sixteen_slit_inputs, 1e-14),
    "edge8": (lambda: _edge_inputs(8), 1e-14),
    "edge16": (lambda: _edge_inputs(16), 1e-14),
    "edge24": (lambda: _edge_inputs(24), 1e-14),
    "spread_gaps": (lambda: _spread_gap_inputs(16, 3), 1e-14),
    "fig1b": (lambda: load_figure_inputs("fig1b")[:5], 2e-14),
    "fig3c": (lambda: load_figure_inputs("fig3c")[:5], 1e-11),
}


@pytest.mark.parametrize("case", list(_FAR_CASES))
def test_far_field_series_agree_with_the_direct_sums(case, monkeypatch):
    # the series interpolate the direct values on |w| = 1/2; at targets inside
    # that ring they read at most 1.4e-15 of the largest direct value
    # (spread_gaps, omega_regular), and targets outside it sum directly.
    # Below four slits the direct values are plain sums, which cancel more
    # as |w| shrinks: there the two read 1.05e-14 (fig1b, n = 2) and 3.8e-12
    # (fig3c, n = 3, omega_regular) apart, the error of the direct side
    # (test_far_field_sums_match_an_80_bit_solve).  Below four slits the band
    # 1/2 < |w| <= 4/5 sums the series sampled on |w| = 4/5: there the two
    # read 4.0e-16 (fig1b) and 1.9e-15 (fig3c) apart, held to 1e-14 in every
    # case; past 4/5 they are equal
    inputs, bound = _FAR_CASES[case]
    sm = pipeline.solve(*inputs()).slit_map
    rng = np.random.default_rng(8)
    z, near = _far_targets(sm, rng), _far_targets(sm, rng, (0.51, 0.99))
    band = np.abs(_hull_w(sm, near)) <= 1.0 / mapper._BAND_RATIO
    if sm.branch.n >= mapper._BALANCED_FROM:
        band[:] = False
    assert band.any() == (sm.branch.n < mapper._BALANCED_FROM) and not band.all()
    names = ("omega_interior", "omega_regular", "F_interior")
    got = [(getattr(sm, name)(z), getattr(sm, name)(near)) for name in names]
    # a phi that keeps no term (fig1b) gets no series: F is its singular part
    assert all((sm._far_series(fams) is not None) == sm._live[fams.start] for fams in (mapper._PHI, mapper._MAP))
    monkeypatch.setattr(SlitMap, "_far_series", _no_series)
    for name, (value, value_near) in zip(names, got):
        want, want_near = getattr(sm, name)(z), getattr(sm, name)(near)
        assert np.abs(value - want).max() <= bound * np.abs(want).max(), name
        assert np.abs(value_near - want_near)[band].max(initial=0.0) <= 1e-14 * np.abs(want_near).max(), name
        np.testing.assert_array_equal(value_near[~band], want_near[~band])


def test_far_field_series_need_a_plateau_on_their_ring():
    # slit and gap lengths spread over three decades: the ring of the series
    # crosses targets where omega is below its slit maximum and the plain rows
    # take over, and the ring coefficients find no plateau
    sm = pipeline.solve(*spread_layout_inputs(16, 3)).slit_map
    assert sm._interior_rows()[1].tolist() == [True, True, False]
    assert sm._far_series(mapper._PHI) is None and sm._far_series(mapper._MAP) is None


def test_far_field_at_huge_and_non_finite_targets():
    # q overflows past |zeta| ~ 1e19 on the n = 16 map, so the direct sums read
    # NaN there; through the series a finite target, however large, reads the
    # value at infinity, the series' first coefficient
    sm = _sixteen_slit_map()
    d = sm.derived
    huge = np.array([1e20, -1e200, 1e200j, -1e300 + 1e300j, 1.7e308])
    at_infinity = sm._far_series(mapper._MAP)[0], sm._far_series(mapper._PHI)[0]
    assert np.all(sm.omega_regular(huge) == at_infinity[0])
    assert np.all(sm.omega_interior(huge) == mapper.singular_part_omega(huge, d) + at_infinity[0])
    assert np.all(sm.F_interior(huge) == d.beta0 + singular_part_F(huge, d) - at_infinity[1])
    # and the values approach it
    assert abs(sm.omega_regular(1e8 + 1e8j) - at_infinity[0]) <= 1e-7 * abs(at_infinity[0])
    # the maps of two and three slits read it too, where their direct sums
    # overflow as well
    fig1b, fig3a = solved_map("fig1b")[0], solved_map("fig3a")[0]
    for small in (fig1b, fig3a):
        assert np.all(small.omega_regular(huge) == small._far_series(mapper._MAP)[0])
    # non-finite targets are never far, and read NaN on every map, also
    # where a part keeps no density (F's q-term on fig1b)
    with np.errstate(all="ignore"):
        for m in (sm, fig1b, fig3a):
            for evaluate in (m.omega_interior, m.omega_regular, m.F_interior):
                assert np.all(np.isnan(evaluate(_NON_FINITE)))


_NON_FINITE = np.array([np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.inf, np.inf), complex(np.nan, 1.0)])


@pytest.mark.parametrize("case, fams, live", [
    pytest.param("fig1b", mapper._PHI, None, id="fig1b-phi"),  # phi keeps no term
    # no solved map is known to keep no map density: fig3a's are switched off
    pytest.param("fig3a", mapper._MAP, [True, False, False], id="fig3a-map"),
])
def test_a_part_without_live_densities_forms_no_root(case, fams, live, monkeypatch):
    gamma = 0.25 - 0.5j  # the map's part keeps it, F's does not
    sm = solved_map(case, dataclasses.replace(load_figure_inputs(case)[3], gamma=gamma))[0]
    if live is not None:
        sm._live = np.array(live)
    assert not sm._live[fams].any()
    z = np.array([0.3 + 0.7j, -2.0 - 1e-9j, 40.0, 1e200j])
    direct = sm._direct(fams, z[:3])  # the sums over no density: the constant they add to
    np.testing.assert_array_equal(direct, 0.0 if fams == mapper._PHI else gamma)

    def refuse(*args, **kwargs):
        raise AssertionError("a root was formed")

    monkeypatch.setattr(mapper, "slit_roots", refuse)
    np.testing.assert_array_equal(sm._regular(fams, z), np.full(z.shape, direct[0]))
    with np.errstate(invalid="ignore"):  # 0 * inf warns, as the direct sums do at these targets
        assert np.all(np.isnan(sm._regular(fams, _NON_FINITE)))
    with pytest.raises(EvaluationError):
        sm._regular(fams, np.array([sm.branch.endpoints[0] + 0j]))


# -- scalar / array contract ---------------------------------------------------


@pytest.fixture(scope="module")
def evaluators():
    """name -> (evaluator, map from fractions in [0, 1] to admissible targets)."""
    sm, derived, _ = solved_map("fig1b")
    branch = sm.branch
    a, b = branch.slit(1)
    on = lambda s: a + (b - a) * s
    off = lambda s: 1.5 + s + (0.5 - s) * 1j
    return {
        "abs_q": (lambda t: abs_q(branch, t), on),
        "g0": (lambda t: g0(t, 1, derived), on),
        "omega_interior": (sm.omega_interior, off),
        "omega_regular": (sm.omega_regular, off),
        "F_interior": (sm.F_interior, off),
    }


EVALUATORS = ("abs_q", "g0", "omega_interior", "omega_regular", "F_interior")


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

    Every (family, slit) density is its own row: the other slits go through
    the off-interval kernel, then the principal value on slit m is added
    (the order of the per-slit sums).
    """
    d, c = sm.derived, sm.constants
    sums = np.zeros((len(mapper.FAMILIES), len(x)))
    for f in range(len(mapper.FAMILIES)):
        for j, (a, b) in enumerate(sm.branch.slits):
            if j != m:
                sums[f] += sm._weights[f, j] * off_one_row(sm._coef[f, j], a, b, x).real
        sums[f] += sm._weights[f, m] * pv_one_row(sm._coef[f, m], *sm.branch.slit(m), x)
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


def _direct(self, T):
    """SlitMap._bank_nodes of a map that always sums the other slits at the bank targets."""
    return 0


@pytest.mark.parametrize("case", ["fig1b", "fig3a", "sixteen"])
def test_stacked_boundary_pass_matches_one_series_per_slit_pair(case, monkeypatch):
    monkeypatch.setattr(SlitMap, "_bank_nodes", _direct)  # the direct kernel is pinned here
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


def test_stacked_80_bit_sums_equal_one_row_and_one_pair_at_a_time():
    # one 80-bit root per target for every family, and one call per slit at
    # the targets of every other slit, in real arithmetic: the same bits as
    # the complex sums of one row and one slit pair at a time
    sm = pipeline.solve(*_edge_inputs(8)).slit_map
    grid = _bank_grid(sm, 200)
    expected, _ = full_degree_80_bit_sums(sm, grid)
    pv = sm._weights[:, :, None] * singular_on_stack(sm._coef, sm._centre, sm._half, grid)
    one = pv.astype(np.longdouble)
    for m in range(sm.branch.n):
        for j, (a, b) in enumerate(sm.branch.slits):
            if j != m:
                for f in range(len(mapper.FAMILIES)):
                    one[f, m] += sm._weights[f, j] * cauchy_off_80bit(sm._coef[f, j], a, b, grid[m] + 0j).real
    np.testing.assert_array_equal(expected, one)


@pytest.mark.parametrize("edge", [False, True], ids=["layout", "edge"])
@pytest.mark.parametrize("n", [2, 8, 16, 24, 32])
def test_boundary_sums_match_full_degree_80_bit_sums(n, edge):
    sm = pipeline.solve(*(_edge_inputs(n) if edge else _layout_inputs(n))).slit_map
    grid = _bank_grid(sm)
    got = sm._slit_sums(mapper._ALL, grid, sm._rows)
    expected, scale = full_degree_80_bit_sums(sm, grid)
    # truncation <= 2^-63 of each lead term; the rest is float64 rounding
    # of Horner loops of <= 64 terms and of the sums over the slits
    err = np.abs(got - expected).astype(float)
    assert np.all(err <= 2.0**-44 * scale)


@pytest.mark.parametrize("edge", [False, True], ids=["layout", "edge"])
@pytest.mark.parametrize("n", [8, 16, 24, 32])
@pytest.mark.parametrize("P", [200, 1600])
def test_interpolated_bank_sums_match_full_degree_80_bit_sums(P, n, edge):
    sm = pipeline.solve(*(_edge_inputs(n) if edge else _layout_inputs(n))).slit_map
    grid = _bank_grid(sm, P)
    K = sm._bank_nodes(P)
    assert K > 0
    coef, weights, rows = sm._coef, sm._weights, sm._rows
    expected, scale = full_degree_80_bit_sums(sm, grid)
    # the interpolants of the other slits, added to the same own-slit
    # principal values as above, are held to the bound of the direct pass
    own = weights[:, :, None] * singular_on_stack(coef, sm._centre, sm._half, grid)
    other = singular_on_stack(sm._interpolant_rows(rows, K), sm._centre, sm._half, grid)
    assert np.all(np.abs(other + own - expected).astype(float) <= 2.0**-44 * scale)
    # folded into the own rows they share one principal-value sum, whose
    # rounding scales with its terms: (pi / h) sum_k |alpha_k U_{k-1}(x)|;
    # the direct pass is held to the same bound against 80-bit principal values
    x = (grid - sm._centre[:, None]) / sm._half[:, None]
    U = np.empty((coef.shape[-1],) + x.shape)
    U[0], U[1] = 0.0, 1.0
    for k in range(2, len(U)):
        U[k] = 2.0 * x * U[k - 1] - U[k - 2]
    own_terms = np.pi / sm._half[:, None] * np.einsum("fjk,kjt->fjt", np.abs(weights[..., None] * coef), np.abs(U))
    long = [np.asarray(v).astype(np.longdouble) for v in (coef, sm._centre, sm._half, grid)]
    expected += weights[:, :, None] * singular_on_stack(*long) - own
    bound = 2.0**-44 * (scale + own_terms)
    for got in (sm._bank_sums(grid, rows), sm._slit_sums(mapper._ALL, grid, rows)):
        assert np.all(np.abs(got - expected).astype(float) <= bound)


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
    assert sum(len(lo) for lo, _, _ in seen) == n * (n - 1)
    for lo, hi, x in seen:
        assert np.all((x < lo) | (x > hi))


def test_block_degrees_are_logged_once_per_map(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger=mapper.__name__):
        sm, _, _ = solved_map("fig3a")
        grid = _bank_grid(sm)
        for _ in range(2):
            sm.banks(grid)
    messages = [r.getMessage() for r in caplog.records if r.name == mapper.__name__]
    assert len(messages) == 1
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert messages[0].startswith("block degrees of the boundary pass: mean ")
    assert f"of L = {sm._coef.shape[-1]}," in messages[0] and "% of the full loop" in messages[0]
    kept = sm.kept_lengths()
    assert (
        f"kept lengths phi {kept['phi']}, g0_rho {kept['g0_rho']}, g1_weighted {kept['g1_weighted']};"
        in messages[0]
    )
    # three slits: the bank pass never interpolates
    assert messages[0].endswith(
        f"other-slit interpolants of K = {sm._nodes} nodes, used from T = never targets per slit"
    )
    assert capsys.readouterr() == ("", "")


def test_interpolant_nodes_are_logged_with_the_targets_they_are_used_from(caplog):
    with caplog.at_level(logging.DEBUG, logger=mapper.__name__):
        sm = _sixteen_slit_map()
    messages = [r.getMessage() for r in caplog.records if r.name == mapper.__name__]
    start = sm._interpolate_from
    assert messages[0].endswith(f"other-slit interpolants of K = {sm._nodes} nodes, used from T = {start} targets per slit")
    assert sm._bank_nodes(start - 1) == 0 < sm._bank_nodes(start) == sm._nodes


def _contours(args, monkeypatch, degrees=None, kernel=None, chop=None, coef=None, direct=False):
    with monkeypatch.context() as patch:
        if direct:
            patch.setattr(SlitMap, "_bank_nodes", _direct)
        if degrees is not None:
            patch.setattr(mapper, "block_degrees", degrees)
        if kernel is not None:
            patch.setattr(mapper, "cauchy_off_blocks", kernel)
        if chop is not None:
            patch.setattr(mapper, "standard_chop", chop)
        if coef is not None:
            patch.setattr(mapper, "coef_from_samples", coef)
        result = pipeline.solve(*args)
    return result.verdict, [p.points for p in result.profiles]


def _no_chop(coef):
    """Every row kept whole: the density table of M + 1 terms."""
    return np.full(np.shape(coef)[:-1], np.shape(coef)[-1])


def _scipy_coef(samples, M):
    """coef_from_samples through scipy's type-II DCT: the same sums, rounded otherwise."""
    coef = scipy.fft.dct(samples, type=2, axis=-1)[..., : M + 1] / np.shape(samples)[-1]
    coef[..., 0] *= 0.5
    return coef


def _full_degree(coef, w):
    """Every block to degree L: the boundary pass of the plain L-term loop."""
    return np.full((len(coef),) + np.shape(w), np.shape(coef)[-1])


def _blocks_80bit(coef, lo, hi, x, degree):
    """Every block to the full width of coef, in 80-bit arithmetic."""
    c = np.asarray(coef).astype(np.longdouble)
    long = [np.asarray(v).astype(np.longdouble) for v in (lo, hi, x)]
    rho, w = quadrature.pair_roots(*long)
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
    # (the direct pass: these are the block degrees of its targets)
    args = slit_layout_inputs(n, seed)
    verdict, got = _contours(args, monkeypatch, direct=True)
    full_verdict, full = _contours(args, monkeypatch, _full_degree, direct=True)
    ref_verdict, ref = _contours(args, monkeypatch, _full_degree, _blocks_80bit, direct=True)
    assert verdict == full_verdict == ref_verdict
    assert _largest_move(got, full) <= 0.1 * _largest_move(full, ref)


def _many_slits_args(seed):
    return [cli.parse_config(doc)[:5] for doc in many_slits_docs(seed)]


_INTERPOLATED_CASES = [("many_slits", 0, k) for k in range(4)] + [
    ("layout", n, seed) for n in (16, 24, 32) for seed in (0, 1)
]


@pytest.mark.parametrize("case", _INTERPOLATED_CASES, ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_interpolated_contours_stay_as_near_the_80_bit_sums_as_the_direct_pass(case, monkeypatch):
    # the interpolants may add to the float64 rounding of the direct pass,
    # measured against its full-degree 80-bit sums, at most a quarter of it
    kind, a, b = case
    args = _many_slits_args(a)[b] if kind == "many_slits" else slit_layout_inputs(a, b)
    assert pipeline.solve(*args).work["bank_nodes"] > 0
    verdict, got = _contours(args, monkeypatch)
    direct_verdict, direct = _contours(args, monkeypatch, direct=True)
    ref_verdict, ref = _contours(args, monkeypatch, _full_degree, _blocks_80bit, direct=True)
    assert verdict == direct_verdict == ref_verdict
    assert _largest_move(got, ref) <= 1.25 * _largest_move(direct, ref)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [8, 16, 24])
def test_chopped_table_stays_near_the_80_bit_sums_of_the_whole_table(n, seed, monkeypatch):
    # the chop drops terms at the rounding plateau of each series, so the
    # chopped pass may be no farther from the 80-bit full-degree sums of the
    # unchopped table than twice the float64 rounding of that table: the
    # rounding of its sums (the unchopped pass against the 80-bit sums) plus
    # the rounding of its coefficients (the unchopped pass against the same
    # pass with its coefficients from another DCT)
    args = slit_layout_inputs(n, seed)
    verdict, got = _contours(args, monkeypatch)
    full_verdict, full = _contours(args, monkeypatch, _full_degree, chop=_no_chop)
    ref_verdict, ref = _contours(args, monkeypatch, _full_degree, _blocks_80bit, _no_chop)
    alt_verdict, alt = _contours(args, monkeypatch, _full_degree, chop=_no_chop, coef=_scipy_coef)
    assert verdict == full_verdict == ref_verdict == alt_verdict
    floor = _largest_move(full, ref) + _largest_move(full, alt)
    assert _largest_move(got, ref) <= 2.0 * floor


_CORPUS_MAPS = [case.name for case in figures.FIGURE_CASES if figures.load_case(case.name)["n"] >= 2]


@pytest.mark.parametrize("case", _CORPUS_MAPS + ["sixteen"])
def test_density_table_is_chopped_as_the_scalar_oracle_chops(case, monkeypatch):
    calls = []

    def spy(coef):
        kept = quadrature.standard_chop(coef)
        calls.append((np.array(coef), kept))
        return kept

    monkeypatch.setattr(mapper, "standard_chop", spy)
    if case == "sixteen":
        sm = _sixteen_slit_map()
    else:
        cfg, loading, materials, free, numerics, overrides = load_figure_inputs(case)
        sm = pipeline.solve(
            cfg, loading, materials, free, numerics,
            override_a=overrides.get("a"), override_rho=overrides.get("rho"),
        ).slit_map
    # phi and g0_rho first, then g1_weighted
    assert [len(coef) for coef, _ in calls] == [2, 1]
    raw = np.concatenate([coef for coef, _ in calls])
    kept = np.concatenate([k for _, k in calls])
    assert kept.tolist() == [[standard_chop_oracle(row) for row in fam] for fam in raw]
    L = max(1, int(kept.max()))
    assert sm._coef.shape == raw.shape[:-1] + (L,)
    np.testing.assert_array_equal(sm._coef, np.where(np.arange(L) < kept[..., None], raw[..., :L], 0.0))
    assert sm.kept_lengths() == dict(zip(mapper.FAMILIES, kept.max(axis=1).tolist()))
    # g1_weighted is sampled from the chopped phi rows
    nodes = branch_module.slit_table(sm.branch, sm.numerics.N).nodes
    weight = np.sqrt((nodes - sm._lo[:, None]) * (sm._hi[:, None] - nodes))
    g1 = sm._g1_values(nodes, sm._rows) * weight
    np.testing.assert_array_equal(raw[2], quadrature.coef_from_samples(g1, sm.numerics.M))
    # the truncation indicators keep reading |alpha_M| of the unchopped series
    assert sm.truncation_indicators() == dict(
        zip(mapper.FAMILIES, truncation_indicator(raw).max(axis=1).tolist())
    )


# -- the path of the bank pass ---------------------------------------------------


def _bank_pass_rule(sm, T):
    """The path rule spelled out: K nodes from four slits on where K S + n T K < T S, else 0.

    S is the sum of the map's block degrees, T the targets per slit.
    """
    n, K = sm.branch.n, sm._nodes
    S = int(sm._block_degree.max(axis=0).sum())
    return K if n >= 4 and K * S + n * T * K < T * S else 0


def _spread_gap_inputs(n, seed):
    """slit_layout_inputs with its n - 1 gap lengths spread log-evenly over three decades, in seeded order."""
    cfg, loading, materials, free, numerics = slit_layout_inputs(n, seed)
    slits = np.asarray(cfg.endpoints).reshape(n, 2)
    parts = np.empty(2 * n - 1)
    parts[::2] = slits[:, 1] - slits[:, 0]
    parts[1::2] = np.random.default_rng(seed).permutation(np.logspace(-3.0, 0.0, n - 1))
    parts[1::2] *= (slits[1:, 0] - slits[:-1, 1]).mean()
    ends = -1.0 + np.concatenate(([0.0], np.cumsum(parts * (2.0 / parts.sum()))))
    ends[-1] = 1.0
    return SlitConfiguration(ends.reshape(n, 2).tolist(), 0.3 + 3.0j), loading, materials, free, numerics


@pytest.mark.parametrize("case", _CORPUS_MAPS)
def test_corpus_maps_keep_the_direct_bank_pass(case, solve_figure):
    result = solve_figure(case)
    sm = result.slit_map
    assert result.work["bank_nodes"] == 0
    for P in (200, 800):  # the corpus, and the fine_contours cases
        assert sm._bank_nodes(P) == 0 == _bank_pass_rule(sm, P)


@pytest.mark.parametrize("seed", [0, 7])
def test_many_slits_layouts_take_the_interpolants(seed):
    for args in _many_slits_args(seed):
        result = pipeline.solve(*args)
        sm = result.slit_map
        assert result.work["bank_nodes"] == _bank_pass_rule(sm, args[4].P) == sm._nodes > 0


def test_gaps_over_three_decades_keep_the_direct_bank_pass():
    args = _spread_gap_inputs(16, 3)
    result = pipeline.solve(*args)
    sm = result.slit_map
    assert result.work["bank_nodes"] == 0 == _bank_pass_rule(sm, args[4].P)
    assert sm._nodes > args[4].P


@pytest.mark.parametrize("case", ["fig3a", "four", "sixteen", "spread"])
def test_the_bank_pass_takes_the_path_of_fewer_terms(case):
    args = {
        "fig3a": lambda: load_figure_inputs("fig3a")[:5],
        "four": lambda: slit_layout_inputs(4, 0),
        "sixteen": sixteen_slit_inputs,
        "spread": lambda: _spread_gap_inputs(16, 3),
    }[case]()
    sm = pipeline.solve(*args).slit_map
    for T in range(2, 2000):
        assert sm._bank_nodes(T) == _bank_pass_rule(sm, T), T


@pytest.mark.parametrize("direct", [False, True], ids=["interpolated", "direct"])
def test_bank_work_counts_the_terms_the_kernels_sum(direct, monkeypatch):
    # fig1b and fig4a keep no phi term, so their kernels sum g0_rho alone
    maps = [_sixteen_slit_map(), solved_map("fig1b")[0], solved_map("fig4a")[0]]
    if direct:
        monkeypatch.setattr(SlitMap, "_bank_nodes", _direct)
    terms = []

    def blocks(coef, lo, hi, x, degree):
        terms.append(len(coef) * int(np.sum(degree)) * x.shape[-1])
        return quadrature.cauchy_off_blocks(coef, lo, hi, x, degree)

    def pv(coef, centre, half, xi):
        terms.append(int(np.prod(np.shape(coef)[:-1])) * (np.shape(coef)[-1] - 1) * np.shape(xi)[-1])
        return quadrature.singular_on_stack(coef, centre, half, xi)

    monkeypatch.setattr(mapper, "cauchy_off_blocks", blocks)
    monkeypatch.setattr(mapper, "singular_on_stack", pv)
    for sm in maps:
        terms.clear()
        sm.banks(_bank_grid(sm, 200))
        K = 0 if direct or sm.branch.n < 4 else sm._nodes
        assert sm.bank_work(200) == {"bank_terms": sum(terms), "bank_nodes": K}
    assert [sum(kept > 0 for kept in sm.kept_lengths().values()) for sm in maps] == [3, 1, 1]


# -- families with no kept terms -------------------------------------------------


def test_corpus_maps_split_into_maps_with_and_without_phi(corpus_maps_by_live_families):
    split = corpus_maps_by_live_families
    assert set(split) == {mapper.FAMILIES, ("g0_rho",)}
    assert sum(map(len, split.values())) == len(_CORPUS_MAPS)


def _family_spies(monkeypatch):
    """Spies on both Cauchy kernels: the families of each call's coefficients, by kernel."""
    calls = {"cauchy_off_stack": [], "cauchy_off_blocks": []}
    for name, seen in calls.items():
        kernel = getattr(quadrature, name)
        monkeypatch.setattr(
            mapper, name, lambda coef, *a, kernel=kernel, seen=seen: seen.append(coef) or kernel(coef, *a)
        )
    return calls


def _sum_through_every_path(sm):
    """A fresh map of sm's solve (its g_1 samples), then its interior and bank passes."""
    sm = SlitMap(sm.branch, sm.derived, sm.constants, sm.numerics)
    z = _far_and_near_targets(sm.branch, np.random.default_rng(2))
    sm.omega_interior(z)
    sm.F_interior(z)
    sm.omega_regular(z[:5])
    sm.banks(_bank_grid(sm, 200))


def test_no_kernel_call_sums_a_family_without_kept_terms(corpus_maps_by_live_families, solve_figure, monkeypatch):
    calls = _family_spies(monkeypatch)
    for name in corpus_maps_by_live_families[("g0_rho",)]:
        _sum_through_every_path(solve_figure(name).slit_map)
    # g0_rho alone: the off-slit sums of omega, and the bank pass
    for seen in calls.values():
        assert seen and all(len(coef) == 1 and coef.any() for coef in seen)


@pytest.mark.parametrize("seed", [0, 7])
def test_many_slits_layouts_sum_every_family(seed, monkeypatch):
    maps = [pipeline.solve(*args).slit_map for args in _many_slits_args(seed)]
    calls = _family_spies(monkeypatch)
    for sm in maps:
        assert all(sm.kept_lengths().values())
        _sum_through_every_path(sm)
    # phi for F and the g_1 samples, g0_rho and g1_weighted for omega, all three on the banks
    # and in the samples of the slit-local series
    assert {len(coef) for coef in calls["cauchy_off_stack"]} == {1, 2, 3}
    assert {len(coef) for coef in calls["cauchy_off_blocks"]} == {1, 3}
    assert all(family.any() for seen in calls.values() for coef in seen for family in coef)


@pytest.mark.parametrize("seed", [0, 7])
def test_interior_values_equal_the_all_family_sums(seed, monkeypatch):
    for doc, z in interior_field_inputs(seed):
        sm = pipeline.solve(*cli.parse_config(doc)[:5]).slit_map
        got = sm.omega_interior(z), sm.F_interior(z), sm.omega_regular(z)
        # a fresh map whose every sum goes over all families, its far-field
        # series sampled from those sums
        d = sm.derived
        with monkeypatch.context() as m:
            m.setattr(SlitMap, "_off_sums", all_family_off_sums)
            every = SlitMap(sm.branch, d, sm.constants, sm.numerics)
            omega, regular = every.omega_interior(z), every.omega_regular(z)
            # F summed over the phi rows also where they are all zero
            phi_term = (every._regular if sm._live[0] else every._direct)(mapper._PHI, z)
            F = d.beta0 + singular_part_F(z, d) - phi_term
        # the map's series at any n, and F's where phi keeps terms
        assert every._far[mapper.FAMILIES[mapper._MAP]] is not None
        assert (every._far.get(mapper.FAMILIES[mapper._PHI]) is not None) == sm._live[0]
        for value, want in zip(got, (omega, F, regular)):
            np.testing.assert_array_equal(value, want)


def test_banks_equal_the_all_family_sums(solve_figure, monkeypatch):
    for name in _CORPUS_MAPS:
        solved = solve_figure(name).slit_map
        sm = SlitMap(solved.branch, solved.derived, solved.constants, solved.numerics)
        with monkeypatch.context() as m:
            m.setattr(SlitMap, "_other_sums", all_family_other_sums)
            m.setattr(SlitMap, "_slit_sums", all_family_slit_sums)
            m.setattr(SlitMap, "_g1_values", all_family_g1_values)
            every = SlitMap(solved.branch, solved.derived, solved.constants, solved.numerics)
            want = every.banks(_bank_grid(every, 200))
        np.testing.assert_array_equal(sm._coef, every._coef)
        for value, oracle in zip(sm.banks(_bank_grid(sm, 200)), want):
            np.testing.assert_array_equal(value, oracle)
