import numpy as np
import pytest
from oracles import cauchy_weighted, sqrt_weight_moment, weighted_pv

from inclusion_forge.quadrature import (
    cauchy_off,
    cauchy_off_stack,
    cheb_coeffs,
    cheb_nodes,
    coef_from_samples,
    gauss_cheb,
    like_input,
    singular_on,
    singular_on_stack,
)


def test_constant_integrates_to_pi():
    assert gauss_cheb(lambda x: np.ones_like(x), -1.0, 1.0, 8) == pytest.approx(
        np.pi, abs=1e-14
    )


def test_odd_density_vanishes():
    assert gauss_cheb(lambda x: x, -1.0, 1.0, 8) == pytest.approx(0.0, abs=1e-15)


def test_square_density():
    # integral x^2/sqrt(1-x^2) = pi/2 (double-factorial oracle)
    assert sqrt_weight_moment(2) == pytest.approx(np.pi / 2)
    assert gauss_cheb(lambda x: x**2, -1.0, 1.0, 8) == pytest.approx(
        np.pi / 2, abs=1e-14
    )


def test_exactness_for_high_degree_polynomials(rng):
    N = 8
    coeffs = rng.normal(size=2 * N)  # degree 2N-1
    exact = sum(c * sqrt_weight_moment(k) for k, c in enumerate(coeffs))
    val = gauss_cheb(np.polynomial.Polynomial(coeffs), -1.0, 1.0, N)
    assert val == pytest.approx(exact, rel=1e-13)


def test_mapped_interval_against_substitution():
    # x = delta_+ + delta_- y turns the weight into sqrt(1-y^2)
    y_form = gauss_cheb(lambda y: np.exp(0.75 + 0.25 * y), -1.0, 1.0, 32)
    assert gauss_cheb(np.exp, 0.5, 1.0, 32) == pytest.approx(y_form, rel=1e-14)


def test_coefficients_recover_polynomials():
    t2 = cheb_coeffs(lambda y: 2 * y**2 - 1, -1.0, 1.0, 16, 8)
    expected = np.zeros(9)
    expected[2] = 1.0
    np.testing.assert_allclose(t2.coef, expected, atol=1e-14)
    const = cheb_coeffs(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert const.coef[0] == pytest.approx(1.0, abs=1e-15)
    cubic = cheb_coeffs(lambda y: y**3, -1.0, 1.0, 16, 8)
    assert cubic.coef[1] == pytest.approx(0.75, abs=1e-14)
    assert cubic.coef[3] == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("N", [7, 8, 64, 65])
def test_coefficients_are_the_gauss_cosine_sums(N):
    x = cheb_nodes(-1.0, 1.0, N)
    samples = np.stack([np.exp(x), 1.0 / (3.0 - x), np.exp(x) + 1j * np.cos(3.0 * x)])
    # T_k at node n is cos(k (2n+1) pi / 2N); the angle index is reduced mod 4N
    k = np.arange(N)[:, None]
    T = np.cos(np.pi * ((k * (2 * np.arange(N) + 1)) % (4 * N)) / (2 * N))
    expected = (2.0 / N) * samples @ T.T
    expected[:, 0] *= 0.5
    np.testing.assert_allclose(coef_from_samples(samples, N - 1), expected, rtol=0, atol=1e-14)


def test_pv_of_first_kind_polynomials():
    s1 = cheb_coeffs(lambda y: y, -1.0, 1.0, 16, 8)
    for x in (-0.6, 0.0, 0.3, 0.9):
        assert singular_on(s1, x) == pytest.approx(np.pi, abs=1e-13)
    s0 = cheb_coeffs(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert singular_on(s0, 0.4) == pytest.approx(0.0, abs=1e-14)
    s2 = cheb_coeffs(lambda y: y**2, -1.0, 1.0, 16, 8)
    assert singular_on(s2, 0.5) == pytest.approx(np.pi / 2, abs=1e-13)


def test_pv_against_subtraction_oracle():
    # oracle accuracy is limited by QUADPACK roundoff near the pole
    a, b = 0.35, 1.0
    h = lambda t: np.cos(2.0 * t) + t
    series = cheb_coeffs(h, a, b, 64, 48)
    for xi in (0.5, 0.62, 0.9):
        assert singular_on(series, xi) == pytest.approx(
            weighted_pv(h, a, b, xi), abs=1e-8
        )


def test_cauchy_off_reference_values():
    s0 = cheb_coeffs(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert cauchy_off(s0, 2.0) == pytest.approx(-np.pi / np.sqrt(3.0), abs=1e-13)
    far = cauchy_off(s0, 1e6)
    assert far == pytest.approx(-np.pi / 1e6, rel=1e-5)
    # real targets beyond the interval give real values
    assert abs(cauchy_off(s0, 3.7).imag) == 0.0


def test_cauchy_off_against_quadrature_oracle():
    a, b = -1.0, -0.5
    h = lambda t: np.sin(t) + 2.0
    series = cheb_coeffs(h, a, b, 48, 40)
    for zeta in (0.3 + 0.4j, -2.0 + 0.0j, 1.5 - 2.2j):
        oracle = cauchy_weighted(h, a, b, zeta)
        assert cauchy_off(series, zeta) == pytest.approx(oracle, abs=1e-10)


def _real_series():
    a, b = -0.4, 0.6
    h = lambda t: np.exp(t) / (2.5 - t)
    return h, cheb_coeffs(h, a, b, 48, 40)


def _off_axis_targets(series, count, rng):
    """Real targets 1e-2 to 1e2 half-lengths off the interval, on both sides."""
    gap = series.delta_minus * 10.0 ** rng.uniform(-2.0, 2.0, count)
    side = rng.choice([-1.0, 1.0], count)
    return np.where(side > 0, series.b + gap, series.a - gap)


def test_real_targets_with_real_coefficients_give_float64():
    _, series = _real_series()
    centre, half = [series.delta_plus], [series.delta_minus]
    out = cauchy_off_stack(series.coef[None], centre, half, np.array([-2.0, 1.5]))
    assert out.dtype == np.float64
    both = np.stack([series.coef, 1j * series.coef])[:, None]
    assert cauchy_off_stack(both, centre, half, np.array([2.0])).dtype == np.complex128


def test_real_targets_agree_with_the_complex_path(rng):
    _, series = _real_series()
    x = _off_axis_targets(series, 4000, rng)
    real = cauchy_off(series, x)
    cplx = cauchy_off(series, x + 0j)
    np.testing.assert_allclose(real, cplx.real, rtol=1e-12, atol=0)
    assert np.all(cplx.imag == 0.0)


def test_real_targets_against_quadrature_oracle():
    h, series = _real_series()
    a, b = series.a, series.b
    for x in (a - 1e-3, b + 1e-3, a - 0.05, b + 0.3, -3.0, 7.5):
        val = cauchy_off(series, x)
        assert type(val) is float
        assert val == pytest.approx(cauchy_weighted(h, a, b, x).real, abs=1e-10)


def test_complex_targets_keep_the_complex_path():
    _, series = _real_series()
    for zeta in (2.0 + 0.0j, np.complex128(-1.5), np.array([2.0 + 0j, -1.0 + 0j])):
        out = cauchy_off(series, zeta)
        assert np.iscomplexobj(out)
        np.testing.assert_array_equal(np.imag(out), 0.0)


def test_cauchy_off_return_type_follows_the_target():
    _, series = _real_series()
    assert type(cauchy_off(series, 2.0)) is float
    assert type(cauchy_off(series, np.float64(2.0))) is float
    assert type(cauchy_off(series, 2)) is float
    assert type(cauchy_off(series, 2.0 + 1.0j)) is complex
    real = cauchy_off(series, np.array([2.0, -3.0]))
    assert isinstance(real, np.ndarray) and real.dtype == np.float64 and real.shape == (2,)
    cplx = cauchy_off(series, np.array([[2.0 + 1j], [-3.0 + 0j]]))
    assert cplx.dtype == np.complex128 and cplx.shape == (2, 1)


def test_plemelj_jump_average():
    a, b = -1.0, 1.0
    h = lambda t: np.exp(t)
    series = cheb_coeffs(h, a, b, 64, 48)
    eps = 1e-5
    for x in (-0.4, 0.2, 0.7):
        avg = 0.5 * (cauchy_off(series, x + 1j * eps) + cauchy_off(series, x - 1j * eps))
        assert abs(avg - singular_on(series, x)) < 1e-3


def test_doubling_nodes_is_stable_for_analytic_densities():
    a, b = 0.2, 1.3
    h = lambda t: np.exp(np.sin(3.0 * t))
    v1 = gauss_cheb(h, a, b, 64)
    v2 = gauss_cheb(h, a, b, 128)
    assert abs(v1 - v2) < 1e-10
    s1 = cheb_coeffs(h, a, b, 64, 40)
    s2 = cheb_coeffs(h, a, b, 128, 40)
    assert abs(singular_on(s1, 0.8) - singular_on(s2, 0.8)) < 1e-10
    assert abs(cauchy_off(s1, 2.0 + 1j) - cauchy_off(s2, 2.0 + 1j)) < 1e-10


def test_truncation_indicator_reflects_resolution():
    h = lambda t: 1.0 / (1.06 - t)
    resolved = cheb_coeffs(h, -1.0, 1.0, 128, 96)
    coarse = cheb_coeffs(h, -1.0, 1.0, 128, 8)
    assert resolved.truncation_indicator < 1e-8
    assert coarse.truncation_indicator > 1e-3


def test_nodes_follow_published_pattern():
    N = 5
    nodes = cheb_nodes(-1.0, 1.0, N)
    j = np.arange(1, N + 1)
    np.testing.assert_allclose(nodes, np.cos((2 * j - 1) * np.pi / (2 * N)), atol=0)


def test_complex_densities_supported():
    h = lambda t: np.exp(1j * t)
    series = cheb_coeffs(h, -1.0, 1.0, 32, 24)
    val = cauchy_off(series, 2.0 + 1.0j)
    oracle = cauchy_weighted(h, -1.0, 1.0, 2.0 + 1.0j)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_like_input_returns_python_scalars_for_scalar_arguments():
    for arg in (0.5, np.float64(0.5), np.array(0.5)):
        out = like_input(np.array(2.0 + 1.0j), arg)
        assert type(out) is complex and out == 2.0 + 1.0j
        assert type(like_input(np.float64(3.0), arg)) is float
    arr = np.array([1.0, 2.0])
    assert like_input(arr, [0.1, 0.2]) is arr


def test_stacked_kernels_match_one_series_per_row():
    intervals = [(-1.0, -0.6), (-0.2, 0.3), (0.5, 1.2)]
    densities = [np.exp, np.cos, lambda t: 1.0 / (2.0 - t)]
    series = [cheb_coeffs(h, a, b, 32, 24) for (a, b), h in zip(intervals, densities)]
    coef = np.stack([s.coef for s in series])
    twice = np.stack([coef, 2.0 * coef])  # a leading family axis broadcasts
    centre = np.array([s.delta_plus for s in series])
    half = np.array([s.delta_minus for s in series])
    zeta = np.array([
        [0.1 + 0.4j, -2.0 + 0.0j, 1.5 - 2.2j],
        [0.4 - 1e-6j, 3.0 + 1j, -0.8 + 1e-3j],
    ])
    off = cauchy_off_stack(twice, centre, half, zeta)
    assert off.shape == (2, 3) + zeta.shape
    for r, s in enumerate(series):
        np.testing.assert_allclose(off[0, r], cauchy_off(s, zeta), rtol=1e-15, atol=0)
        np.testing.assert_allclose(off[1, r], 2.0 * off[0, r], rtol=1e-15, atol=0)
    # principal values: each row at targets inside its own interval
    frac = np.array([0.0, 0.3, 0.8, 1.0])
    for r, s in enumerate(series):
        xi = s.a + (s.b - s.a) * frac
        on = singular_on_stack(coef, centre, half, xi)
        np.testing.assert_allclose(on[r], singular_on(s, xi), rtol=1e-15, atol=0)
