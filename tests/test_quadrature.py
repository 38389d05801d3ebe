import numpy as np
import pytest
from oracles import (
    cauchy_off_80bit,
    cauchy_weighted,
    gauss_rule,
    off_one_row,
    pv_one_row,
    series_coef,
    sqrt_weight_moment,
    standard_chop as standard_chop_oracle,
    tail_degree_80bit,
    weighted_pv,
)

from inclusion_forge import quadrature
from inclusion_forge.quadrature import (
    DegreeTable,
    SlitRoots,
    block_degrees,
    cauchy_off_blocks,
    cauchy_off_stack,
    cheb_nodes,
    coef_from_samples,
    degree_table,
    like_input,
    singular_on_stack,
    slit_roots,
    standard_chop,
    truncation_indicator,
)


def test_constant_integrates_to_pi():
    assert gauss_rule(lambda x: np.ones_like(x), -1.0, 1.0, 8) == pytest.approx(
        np.pi, abs=1e-14
    )


def test_odd_density_vanishes():
    assert gauss_rule(lambda x: x, -1.0, 1.0, 8) == pytest.approx(0.0, abs=1e-15)


def test_square_density():
    # integral x^2/sqrt(1-x^2) = pi/2 (double-factorial oracle)
    assert sqrt_weight_moment(2) == pytest.approx(np.pi / 2)
    assert gauss_rule(lambda x: x**2, -1.0, 1.0, 8) == pytest.approx(
        np.pi / 2, abs=1e-14
    )


def test_exactness_for_high_degree_polynomials(rng):
    N = 8
    coeffs = rng.normal(size=2 * N)  # degree 2N-1
    exact = sum(c * sqrt_weight_moment(k) for k, c in enumerate(coeffs))
    val = gauss_rule(np.polynomial.Polynomial(coeffs), -1.0, 1.0, N)
    assert val == pytest.approx(exact, rel=1e-13)


def test_mapped_interval_against_substitution():
    # x = delta_+ + delta_- y turns the weight into sqrt(1-y^2)
    y_form = gauss_rule(lambda y: np.exp(0.75 + 0.25 * y), -1.0, 1.0, 32)
    assert gauss_rule(np.exp, 0.5, 1.0, 32) == pytest.approx(y_form, rel=1e-14)


def test_coefficients_recover_polynomials():
    t2 = series_coef(lambda y: 2 * y**2 - 1, -1.0, 1.0, 16, 8)
    expected = np.zeros(9)
    expected[2] = 1.0
    np.testing.assert_allclose(t2, expected, atol=1e-14)
    const = series_coef(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert const[0] == pytest.approx(1.0, abs=1e-15)
    cubic = series_coef(lambda y: y**3, -1.0, 1.0, 16, 8)
    assert cubic[1] == pytest.approx(0.75, abs=1e-14)
    assert cubic[3] == pytest.approx(0.25, abs=1e-14)


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
    s1 = series_coef(lambda y: y, -1.0, 1.0, 16, 8)
    for x in (-0.6, 0.0, 0.3, 0.9):
        assert pv_one_row(s1, -1.0, 1.0, x) == pytest.approx(np.pi, abs=1e-13)
    s0 = series_coef(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert pv_one_row(s0, -1.0, 1.0, 0.4) == pytest.approx(0.0, abs=1e-14)
    s2 = series_coef(lambda y: y**2, -1.0, 1.0, 16, 8)
    assert pv_one_row(s2, -1.0, 1.0, 0.5) == pytest.approx(np.pi / 2, abs=1e-13)


def test_pv_against_subtraction_oracle():
    # oracle accuracy is limited by QUADPACK roundoff near the pole
    a, b = 0.35, 1.0
    h = lambda t: np.cos(2.0 * t) + t
    series = series_coef(h, a, b, 64, 48)
    for xi in (0.5, 0.62, 0.9):
        assert pv_one_row(series, a, b, xi) == pytest.approx(
            weighted_pv(h, a, b, xi), abs=1e-8
        )


def test_cauchy_off_reference_values():
    s0 = series_coef(lambda y: np.ones_like(y), -1.0, 1.0, 16, 8)
    assert off_one_row(s0, -1.0, 1.0, 2.0) == pytest.approx(-np.pi / np.sqrt(3.0), abs=1e-13)
    far = off_one_row(s0, -1.0, 1.0, 1e6)
    assert far == pytest.approx(-np.pi / 1e6, rel=1e-5)
    # real targets beyond the interval give real values
    assert abs(off_one_row(s0, -1.0, 1.0, 3.7).imag) == 0.0


def test_cauchy_off_against_quadrature_oracle():
    a, b = -1.0, -0.5
    h = lambda t: np.sin(t) + 2.0
    series = series_coef(h, a, b, 48, 40)
    for zeta in (0.3 + 0.4j, -2.0 + 0.0j, 1.5 - 2.2j):
        oracle = cauchy_weighted(h, a, b, zeta)
        assert off_one_row(series, a, b, zeta) == pytest.approx(oracle, abs=1e-10)


_A, _B = -0.4, 0.6  # the interval of _real_series


def _real_series():
    h = lambda t: np.exp(t) / (2.5 - t)
    return h, series_coef(h, _A, _B, 48, 40)


def _off_axis_targets(count, rng):
    """Real targets 1e-2 to 1e2 half-lengths off the interval, on both sides."""
    gap = 0.5 * (_B - _A) * 10.0 ** rng.uniform(-2.0, 2.0, count)
    side = rng.choice([-1.0, 1.0], count)
    return np.where(side > 0, _B + gap, _A - gap)


def test_real_targets_with_real_coefficients_give_float64():
    _, series = _real_series()
    lo, hi = [_A], [_B]
    out = cauchy_off_stack(series[None], slit_roots(lo, hi, np.array([-2.0, 1.5])))
    assert out.dtype == np.float64
    both = np.stack([series, 1j * series])[:, None]
    assert cauchy_off_stack(both, slit_roots(lo, hi, np.array([2.0]))).dtype == np.complex128


def test_real_targets_agree_with_the_complex_path(rng):
    _, series = _real_series()
    x = _off_axis_targets(4000, rng)
    real = off_one_row(series, _A, _B, x)
    cplx = off_one_row(series, _A, _B, x + 0j)
    np.testing.assert_allclose(real, cplx.real, rtol=1e-12, atol=0)
    assert np.all(cplx.imag == 0.0)


def test_real_targets_against_quadrature_oracle():
    h, series = _real_series()
    a, b = _A, _B
    for x in (a - 1e-3, b + 1e-3, a - 0.05, b + 0.3, -3.0, 7.5):
        val = off_one_row(series, a, b, x)
        assert val.dtype == np.float64
        assert val == pytest.approx(cauchy_weighted(h, a, b, x).real, abs=1e-10)


def test_far_field_matches_an_80_bit_horner_sum():
    # |x| = 4e2 ... 4e6 half-lengths from the centre: w = x - root would
    # cancel to ~|x|^2 eps here, w = h / ((zeta - c) + rho) does not
    _, series = _real_series()
    c, h = 0.5 * (_B + _A), 0.5 * (_B - _A)
    r = 4.0 * 10.0 ** np.arange(2, 7)
    angles = np.array([0.3, 1.2, 2.5, -0.7, -2.9])
    zeta = c + h * (r[:, None] * np.exp(1j * angles)).ravel()
    x = c + h * np.concatenate([r, -r])
    for targets in (zeta, x):
        ref = cauchy_off_80bit(series, _A, _B, targets)
        got = off_one_row(series, _A, _B, targets)
        assert got.dtype == targets.dtype
        ref = ref if np.iscomplexobj(got) else ref.real
        np.testing.assert_allclose(got, ref.astype(got.dtype), rtol=1e-14, atol=0)


def test_complex_targets_keep_the_complex_path():
    _, series = _real_series()
    for zeta in (2.0 + 0.0j, np.complex128(-1.5), np.array([2.0 + 0j, -1.0 + 0j])):
        out = off_one_row(series, _A, _B, zeta)
        assert np.iscomplexobj(out)
        np.testing.assert_array_equal(np.imag(out), 0.0)


def test_cauchy_off_return_type_follows_the_target():
    _, series = _real_series()
    for target in (2.0, np.float64(2.0), 2):
        assert off_one_row(series, _A, _B, target).dtype == np.float64
    assert off_one_row(series, _A, _B, 2.0 + 1.0j).dtype == np.complex128
    real = off_one_row(series, _A, _B, np.array([2.0, -3.0]))
    assert isinstance(real, np.ndarray) and real.dtype == np.float64 and real.shape == (2,)
    cplx = off_one_row(series, _A, _B, np.array([[2.0 + 1j], [-3.0 + 0j]]))
    assert cplx.dtype == np.complex128 and cplx.shape == (2, 1)


def test_plemelj_jump_average():
    a, b = -1.0, 1.0
    h = lambda t: np.exp(t)
    series = series_coef(h, a, b, 64, 48)
    eps = 1e-5
    for x in (-0.4, 0.2, 0.7):
        avg = 0.5 * (off_one_row(series, a, b, x + 1j * eps) + off_one_row(series, a, b, x - 1j * eps))
        assert abs(avg - pv_one_row(series, a, b, x)) < 1e-3


def test_doubling_nodes_is_stable_for_analytic_densities():
    a, b = 0.2, 1.3
    h = lambda t: np.exp(np.sin(3.0 * t))
    v1 = gauss_rule(h, a, b, 64)
    v2 = gauss_rule(h, a, b, 128)
    assert abs(v1 - v2) < 1e-10
    s1 = series_coef(h, a, b, 64, 40)
    s2 = series_coef(h, a, b, 128, 40)
    assert abs(pv_one_row(s1, a, b, 0.8) - pv_one_row(s2, a, b, 0.8)) < 1e-10
    assert abs(off_one_row(s1, a, b, 2.0 + 1j) - off_one_row(s2, a, b, 2.0 + 1j)) < 1e-10


def test_truncation_indicator_reflects_resolution():
    h = lambda t: 1.0 / (1.06 - t)
    resolved = series_coef(h, -1.0, 1.0, 128, 96)
    coarse = series_coef(h, -1.0, 1.0, 128, 8)
    assert truncation_indicator(resolved) < 1e-8
    assert truncation_indicator(coarse) > 1e-3


def test_nodes_follow_published_pattern():
    N = 5
    nodes = cheb_nodes(-1.0, 1.0, N)
    j = np.arange(1, N + 1)
    np.testing.assert_allclose(nodes, np.cos((2 * j - 1) * np.pi / (2 * N)), atol=0)


def test_complex_densities_supported():
    h = lambda t: np.exp(1j * t)
    series = series_coef(h, -1.0, 1.0, 32, 24)
    val = off_one_row(series, -1.0, 1.0, 2.0 + 1.0j)
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
    coef = np.stack([series_coef(h, a, b, 32, 24) for (a, b), h in zip(intervals, densities)])
    twice = np.stack([coef, 2.0 * coef])  # a leading family axis broadcasts
    lo, hi = np.array(intervals).T
    centre, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    zeta = np.array([
        [0.1 + 0.4j, -2.0 + 0.0j, 1.5 - 2.2j],
        [0.4 - 1e-6j, 3.0 + 1j, -0.8 + 1e-3j],
    ])
    off = cauchy_off_stack(twice, slit_roots(lo, hi, zeta))
    assert off.shape == (2, 3) + zeta.shape
    for r, (a, b) in enumerate(intervals):
        np.testing.assert_allclose(off[0, r], off_one_row(coef[r], a, b, zeta), rtol=1e-15, atol=0)
        np.testing.assert_allclose(off[1, r], 2.0 * off[0, r], rtol=1e-15, atol=0)
    # principal values: each row at targets inside its own interval
    frac = np.array([0.0, 0.3, 0.8, 1.0])
    for r, (a, b) in enumerate(intervals):
        xi = a + (b - a) * frac
        on = singular_on_stack(coef, centre, half, xi)
        np.testing.assert_allclose(on[r], pv_one_row(coef[r], a, b, xi), rtol=1e-15, atol=0)


def _plain_singular_on_stack(coef, centre, half, xi):
    """The principal-value recurrence with new arrays per term and no row skipped."""
    half = np.asarray(half)[:, None]
    x = (np.asarray(xi, dtype=float) - np.asarray(centre)[:, None]) / half
    total = np.zeros(coef.shape[:-1] + x.shape[-1:], dtype=np.result_type(coef, x))
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    for m in range(1, coef.shape[-1]):
        total += coef[..., m, None] * u
        u_prev, u = u, 2.0 * x * u - u_prev
    total *= np.pi / half
    return total


def test_in_place_principal_values_are_bit_identical_to_the_plain_recurrence(rng):
    centre = np.array([-0.8, -0.1, 0.4, 0.9])
    half = np.array([0.15, 0.2, 0.1, 0.05])
    coef = rng.normal(size=(3, 4, 33))
    coef[0] = 0.0  # a family with no density
    coef[:, 2] = 0.0  # a slit with no density in any family
    coef[1, 1, 1:] = 0.0  # T_0 alone, which adds nothing
    frac = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 7)))
    own = centre[:, None] + half[:, None] * frac  # endpoints of every row
    for c in (coef, coef[1], coef[1:2, :3], np.zeros_like(coef)):
        rows = c.shape[-2]
        for xi in (own[:rows], own[1]):
            got = singular_on_stack(c, centre[:rows], half[:rows], xi)
            np.testing.assert_array_equal(
                got, _plain_singular_on_stack(c, centre[:rows], half[:rows], xi)
            )
    assert not singular_on_stack(coef, centre, half, own)[0].any()


# -- the degree table and the split Horner loop ----------------------------------

# One long interval with three short ones close to its right end: the long
# one's |w| at their centres is 0.5-0.8, so rows that do not decay need all
# their terms there.
_LO = np.array([-1.0, 0.52, 0.55, 0.6])
_HI = np.array([0.5, 0.53, 0.56, 1.0])
_L = 64
TABLE_KINDS = ("decaying", "flat", "c0_zero", "all_zero")


def _seeded_table(kind, rng):
    """Two families of four rows of one kind, shape (2, 4, L)."""
    k = np.arange(_L)
    decaying = rng.normal(size=(2, 4, _L)) * np.exp(-rng.uniform(0.3, 1.5, (2, 4, 1)) * k)
    if kind == "decaying":
        return decaying
    if kind == "flat":  # O(1) coefficients that do not decay
        return rng.uniform(0.5, 1.5, (2, 4, _L)) * rng.choice([-1.0, 1.0], (2, 4, _L))
    if kind == "c0_zero":  # as in symmetric layouts: the lead term is not c_0
        decaying[..., 0] = 0.0
        decaying[0, 2, 1] = 0.0
        return decaying
    return np.zeros((2, 4, _L))


def _seeded_targets(rng, count):
    """Complex targets 1e-12 to 1e6 half-lengths off a point of an interval."""
    j = rng.integers(len(_LO), size=count)
    at = _LO[j] + (_HI[j] - _LO[j]) * rng.uniform(0.0, 1.0, count)
    dist = 0.5 * (_HI[j] - _LO[j]) * 10.0 ** rng.uniform(-12.0, 6.0, count)
    return at + dist * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def _abs_series(coef, w):
    """sum_k |c_k| |w|^k of every row at every target, shape (F, R, T)."""
    powers = np.abs(w)[:, None, :] ** np.arange(coef.shape[-1])[:, None]
    return np.einsum("frk,rkt->frt", np.abs(coef), powers)


def _full_horner(coef, roots):
    """The off-interval kernel's loop over all L terms, as written before the split."""
    rho, w = roots
    total = np.empty(coef.shape[:-1] + w.shape[-1:], dtype=np.result_type(coef, w))
    total[...] = coef[..., -1, None]
    for m in range(coef.shape[-1] - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    return total * np.divide(-np.pi, rho)


# block_degrees lowers the bound by 2^-40 against rounding; its degree lies
# between the 80-bit degrees of the exact bound and of a bound 2^-39 lower
_LOWERED = 1.0 - 2.0**-39


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_degree_table_thresholds_are_conservative_and_minimal(kind, seed):
    coef = _seeded_table(kind, np.random.default_rng([seed, 7]))
    table = degree_table(coef, _LO, _HI)
    assert table.thr.shape == (len(_LO),)
    assert np.all((table.thr >= 0.0) & (table.thr < 1.0))
    for j, a in enumerate(table.thr):
        rows = coef[:, j]
        # the exact bound holds with D terms at thr[j]; a little above it even
        # the lowered bound needs more
        assert tail_degree_80bit(rows, a) <= table.D, j
        above = a * (1.0 + 2.0**-30)
        if above < 1.0:
            assert tail_degree_80bit(rows, above, _LOWERED) > table.D, j
    if kind == "all_zero":
        assert np.all(table.thr >= 1.0 - 2.0**-30)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_split_kernel_matches_the_full_horner_loop(kind, seed):
    rng = np.random.default_rng([seed, 11])
    coef = _seeded_table(kind, rng)
    table = degree_table(coef, _LO, _HI)
    roots = slit_roots(_LO, _HI, _seeded_targets(rng, 2000))
    # the kernel's own scale: pi sum_k |c_k| |w|^k / |rho| per (row, target)
    scale = np.pi * _abs_series(coef, roots.w) / np.abs(roots.rho)
    wide = SlitRoots(roots.rho.astype(np.clongdouble), roots.w.astype(np.clongdouble))
    full = cauchy_off_stack(coef, roots)
    full_80 = cauchy_off_stack(coef.astype(np.longdouble), wide)
    for D in sorted({table.D, 1, _L // 2, _L}):
        split = DegreeTable(quadrature._thresholds(coef, D), D, table.beyond)
        # in 80-bit arithmetic what is left is the truncation: <= 2^-63 of the
        # lead term, below 2^-60 of the scale with rounding to spare
        got_80 = cauchy_off_stack(coef.astype(np.longdouble), wide, split)
        assert np.all(np.abs(got_80 - full_80).astype(float) <= 2.0**-60 * scale), D
        # in float64 the two loops also round differently after the split:
        # each stays within (4D + 2) u of its exact value (complex Horner)
        got = cauchy_off_stack(coef, roots, split)
        bound = (2.0**-60 + 2 * (4 * D + 2) * 2.0**-53) * scale
        assert np.all(np.abs(got - full) <= bound), D
    if kind == "all_zero":
        assert table.D == 1 and not cauchy_off_stack(coef, roots, table).any()


def test_degree_table_follows_the_decay_of_the_rows(rng):
    D = {kind: degree_table(_seeded_table(kind, rng), _LO, _HI).D for kind in TABLE_KINDS}
    assert D["flat"] == _L and D["all_zero"] == 1
    assert 1 < D["decaying"] < _L and 1 < D["c0_zero"] < _L


def test_kernel_without_a_table_is_the_full_loop(rng):
    coef = _seeded_table("decaying", rng) * (1.0 + 0.5j)
    for targets in (_seeded_targets(rng, 500), np.array([-1.5, 0.54, 3.0, 2e5])):
        roots = slit_roots(_LO, _HI, targets)
        expected = _full_horner(coef, roots)
        np.testing.assert_array_equal(cauchy_off_stack(coef, roots), expected)
        every = DegreeTable(quadrature._thresholds(coef, _L), _L, 0.0)
        np.testing.assert_array_equal(cauchy_off_stack(coef, roots, every), expected)


# -- block degrees and the block kernel ------------------------------------------


def _worst_w(lo, hi):
    """|w_j| at the nearer endpoint of interval i, shape (i, j), as SlitMap takes it."""
    ends = np.stack([lo, hi], axis=-1)
    return np.abs(slit_roots(lo, hi, ends).w).max(axis=-1).T


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_block_degrees_are_conservative_and_minimal(kind, seed):
    rng = np.random.default_rng([seed, 13])
    coef = _seeded_table(kind, rng)
    # the layout's worst |w| per (interval, interval), and random |w| in (0, 1)
    for w in (_worst_w(_LO, _HI), rng.uniform(0.0, 1.0, (6, 4)) ** 3):
        degree = block_degrees(coef, w)
        assert degree.shape == (len(coef),) + w.shape
        # the exact bound holds at the degree; one term earlier even the lowered one fails
        for f, k, r in np.ndindex(degree.shape):
            row = coef[f : f + 1, r]
            low, high = tail_degree_80bit(row, w[k, r]), tail_degree_80bit(row, w[k, r], _LOWERED)
            assert low <= degree[f, k, r] <= high, (f, k, r)
    if kind == "all_zero":
        assert not degree.any()
    if kind == "flat":  # O(1) rows at |w| near 1 keep every term
        assert block_degrees(coef, np.full((1, 4), 0.999)).min() == _L


def _truncated_horner(coef, roots, d):
    """-pi/rho times the first d terms of each row, by the plain loop; zero for d = 0."""
    rho, w = roots
    total = np.zeros(coef.shape[:-1] + w.shape[-1:])
    if d:
        total[...] = coef[..., d - 1, None]
    for m in range(d - 2, -1, -1):
        total *= w
        total += coef[..., m, None]
    return total * np.divide(-np.pi, rho)


def _block_targets(rng, row, T):
    """T real targets per block off its interval, 1e-3 to 1e3 half-lengths away."""
    half = 0.5 * (_HI - _LO)[row, None]
    gap = half * 10.0 ** rng.uniform(-3.0, 3.0, (len(row), T))
    return np.where(rng.uniform(size=gap.shape) < 0.5, _LO[row, None] - gap, _HI[row, None] + gap)


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_each_block_sums_exactly_its_own_degree(kind, rng):
    coef = _seeded_table(kind, rng)
    row = rng.integers(len(_LO), size=30)
    x = _block_targets(rng, row, 7)
    degree = np.sort(rng.integers(0, _L + 1, size=len(row)))[::-1]
    degree[[0, 1, -1]] = (_L, _L, 0)  # not increasing, L and 0 included
    got = cauchy_off_blocks(coef[:, row], _LO[row, None], _HI[row, None], x, degree)
    assert got.shape == (2, len(row), 7) and got.dtype == np.float64
    for b, (r, d) in enumerate(zip(row, degree)):
        roots = slit_roots(_LO[r : r + 1], _HI[r : r + 1], x[b])
        np.testing.assert_array_equal(got[:, b], _truncated_horner(coef[:, r : r + 1], roots, d)[:, 0])
        if d == _L:  # a block of full degree is the plain kernel, bit for bit
            np.testing.assert_array_equal(got[:, b], cauchy_off_stack(coef[:, r : r + 1], roots)[:, 0])


# -- chopping each series at its rounding plateau --------------------------------


def _chop_rows(kind: str, rng, L: int, R: int = 24) -> np.ndarray:
    """R seeded coefficient rows of length L of one kind."""
    k = np.arange(L)
    scale = 10.0 ** rng.uniform(-200.0, 200.0, (R, 1))
    if kind == "noise plateau":  # geometric decay into noise at 1e-16 to 1e-13, before L / 2
        decay = (10.0 ** (-rng.uniform(32.0, 48.0, (R, 1)) / L)) ** k * rng.standard_normal((R, L))
        rows = decay + 10.0 ** rng.uniform(-16.0, -13.0, (R, 1)) * rng.standard_normal((R, L))
    elif kind == "steep decay":  # below tol^(7/6) inside the plateau window, with no noise
        rows = (10.0 ** -rng.uniform(0.5, 3.0, (R, 1))) ** k * rng.standard_normal((R, L))
    elif kind == "no plateau":  # still above 1e-6 at the last term
        rows = rng.uniform(0.9, 0.99, (R, 1)) ** k * rng.uniform(1.0, 2.0, (R, L))
    elif kind == "zero tail":  # exact zeros from a seeded point on, within reach of the test
        rows = rng.uniform(0.5, 0.95, (R, 1)) ** k * rng.standard_normal((R, L))
        rows[k >= rng.integers(1, int(0.8 * (L - 6.5)), (R, 1))] = 0.0
    elif kind == "all zero":
        rows = np.zeros((R, L))
    else:
        raise ValueError(kind)
    return scale * rows


@pytest.mark.parametrize("L", [17, 40, 64, 65, 129])
@pytest.mark.parametrize("kind", ["noise plateau", "steep decay", "no plateau", "zero tail", "all zero"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chop_matches_the_scalar_oracle(kind, L, seed):
    rows = _chop_rows(kind, np.random.default_rng([seed, L]), L)
    kept = standard_chop(rows.reshape(2, -1, L))  # any leading shape
    assert kept.shape == (2, len(rows) // 2)
    kept = kept.reshape(-1)
    assert kept.tolist() == [standard_chop_oracle(r) for r in rows]
    if kind in ("noise plateau", "steep decay"):
        assert np.all(kept >= 1)
        if kind == "noise plateau" and L > 17:  # at L = 17 the plateau test sees only j <= 9
            assert np.all(kept < L)
        # what is dropped lies at the noise level
        dropped = np.where(np.arange(L) >= kept[:, None], np.abs(rows), 0.0)
        assert np.all(dropped.max(axis=-1) <= 1e-11 * np.abs(rows).max(axis=-1))
    elif kind == "no plateau":
        assert np.all(kept == L)
    elif kind == "zero tail":
        first_zero = np.argmax(np.cumsum(np.abs(rows[:, ::-1]), axis=-1)[:, ::-1] == 0.0, axis=-1)
        assert np.all((1 <= kept) & (kept <= first_zero))
    else:
        assert np.all(kept == 0)


@pytest.mark.parametrize("L", [1, 8, 16])
def test_rows_shorter_than_17_terms_are_kept_whole(L, rng):
    rows = np.concatenate([rng.standard_normal((3, L)) * 0.1 ** np.arange(L), np.zeros((2, L))])
    rows[0, L // 2 :] = 0.0
    assert standard_chop(rows).tolist() == [L] * 5 == [standard_chop_oracle(r) for r in rows]
