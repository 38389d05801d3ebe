import math

import numpy as np
import pytest

from inclusion_forge.model import (
    AT_INFINITY,
    ConfigurationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    derive_constants,
    pole_density,
    validate,
)

FIG1_LOADING = Loading(1.0, 1.0, -1.0, 1.0)
PAIR = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], 0.15)


def test_equal_stresses_give_zero_pole_strength():
    loading = Loading(1.0, 1.0, 1.0, 1.0)
    d = derive_constants(loading, MaterialSet([5.0, 5.0]), PAIR, FreeParameters())
    assert d.c == 0


def test_fig1_pole_strength_is_minus_two():
    d = derive_constants(FIG1_LOADING, MaterialSet([5.0, 5.0]), PAIR, FreeParameters())
    # (tau_inf_bar - tau_bar)/mu = (-1-i) - (1-i) = -2, times c_m1 = 1
    assert d.c == pytest.approx(-2.0 + 0.0j, abs=0)


def test_contrast_factors_for_kappa_five():
    mats = MaterialSet([5.0])
    cfg = SlitConfiguration([(-1.0, 1.0)], AT_INFINITY)
    d = derive_constants(FIG1_LOADING, mats, cfg, FreeParameters())
    assert d.lam[0] == pytest.approx(-1.25, abs=1e-15)
    assert mats.lambda_tilde()[0] == pytest.approx(-1.25, abs=1e-15)


@pytest.mark.parametrize("mu", [0.5, 1.0, 7.25])
@pytest.mark.parametrize("kappa", [0.1, 0.9, 2.0, 1000.0])
def test_lambda_scaling_identity(mu, kappa):
    mats = MaterialSet([kappa])
    lam, lam_tilde = mats.lam(mu)[0], mats.lambda_tilde()[0]
    assert lam == mu * lam_tilde


def test_pole_strength_vanishes_only_for_equal_stresses(rng):
    for _ in range(20):
        t = rng.normal(size=4)
        loading = Loading(*t)
        d = derive_constants(
            loading, MaterialSet([2.0, 2.0]), PAIR, FreeParameters()
        )
        expect_zero = t[0] == t[2] and t[1] == t[3]
        assert (d.c == 0) == expect_zero


def test_derive_constants_is_pure():
    args = (FIG1_LOADING, MaterialSet([5.0, 5.0]), PAIR, FreeParameters())
    assert derive_constants(*args) == derive_constants(*args)


def test_validate_accepts_figure_configuration():
    report = validate(PAIR, FIG1_LOADING, MaterialSet([5.0, 5.0]))
    assert report.ok
    assert report.warnings == ()


def test_validate_rejects_pole_preimage_on_slit():
    cfg = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], 0.7)
    report = validate(cfg, FIG1_LOADING, MaterialSet([5.0, 5.0]))
    assert any("gap" in v or "slit" in v for v in report.violations)


def test_validate_rejects_unit_kappa():
    report = validate(PAIR, FIG1_LOADING, MaterialSet([1.0, 5.0]))
    assert any("singular" in v for v in report.violations)


def test_validate_rejects_zero_interior_stress():
    report = validate(PAIR, Loading(0.0, 0.0, 1.0, 0.0), MaterialSet([5.0, 5.0]))
    assert not report.ok


def test_validate_warns_on_nonstandard_span():
    cfg = SlitConfiguration([(-2.0, -0.5), (0.5, 1.0)], 0.0)
    report = validate(cfg, FIG1_LOADING, MaterialSet([5.0, 5.0]))
    assert report.ok
    assert any("[-1, 1]" in w for w in report.warnings)


def test_validate_two_slit_pole_constraints():
    off_axis = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], 0.1 + 0.2j)
    assert not validate(off_axis, FIG1_LOADING, MaterialSet([5.0, 5.0])).ok
    at_inf = SlitConfiguration([(-1.0, -0.5), (0.5, 1.0)], AT_INFINITY)
    assert not validate(at_inf, FIG1_LOADING, MaterialSet([5.0, 5.0])).ok


def test_validate_single_slit_constraints():
    bad_span = SlitConfiguration([(-0.5, 0.5)], AT_INFINITY)
    assert not validate(bad_span, FIG1_LOADING, MaterialSet([5.0])).ok
    finite_pole = SlitConfiguration([(-1.0, 1.0)], 3.0 + 1.0j)
    assert not validate(finite_pole, FIG1_LOADING, MaterialSet([5.0])).ok


def test_validate_many_slits_need_finite_pole():
    cfg = SlitConfiguration(
        [(-1.0, -0.7), (-0.5, -0.2), (0.0, 0.3), (0.5, 1.0)], AT_INFINITY
    )
    assert not validate(cfg, FIG1_LOADING, MaterialSet([2.0] * 4)).ok
    cfg_ok = SlitConfiguration(
        [(-1.0, -0.7), (-0.5, -0.2), (0.0, 0.3), (0.5, 1.0)], 2.0 + 1.0j
    )
    assert validate(cfg_ok, FIG1_LOADING, MaterialSet([2.0] * 4)).ok


def test_derive_constants_raises_on_violations():
    with pytest.raises(ConfigurationError):
        derive_constants(FIG1_LOADING, MaterialSet([1.0, 5.0]), PAIR, FreeParameters())
    with pytest.raises(ConfigurationError):
        derive_constants(
            Loading(1.0, 0.0, -1.0, 0.0, mu=-1.0),
            MaterialSet([5.0, 5.0]), PAIR, FreeParameters(),
        )


def test_free_parameters_reject_zero_scaling():
    with pytest.raises(ConfigurationError):
        FreeParameters(c_m1=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"N": 4}, {"M": 2}, {"N": 16, "M": 32},
        {"P": 4}, {"tol_solve": 0.0},
        {"P": 2**62}, {"N": 10**20}, {"N": 2**40, "M": 2**31},
    ],
)
def test_numerics_invariants(kwargs):
    with pytest.raises(ConfigurationError):
        NumericsConfig(**kwargs)


def test_pole_density_matches_direct_arithmetic():
    d = derive_constants(FIG1_LOADING, MaterialSet([5.0, 5.0]), PAIR, FreeParameters())
    xi = 0.73
    assert pole_density(xi, d) == pytest.approx((d.c / (xi - 0.15)).imag, rel=1e-15)
    cfg_inf = SlitConfiguration([(-1.0, -0.5), (-0.1, 0.1), (0.5, 1.0)], AT_INFINITY)
    d_inf = derive_constants(
        FIG1_LOADING, MaterialSet([5.0, 5.0, 5.0]), cfg_inf, FreeParameters()
    )
    assert pole_density(xi, d_inf) == pytest.approx(d_inf.c.imag * xi, rel=1e-15)


def test_slit_configuration_structure():
    cfg = SlitConfiguration([-1.0, -0.5, 0.5, 1.0], 0.0)
    assert cfg.n == 2
    assert cfg.slits == ((-1.0, -0.5), (0.5, 1.0))
    assert cfg.on_any_slit(0.7 + 0j)
    assert not cfg.on_any_slit(0.0 + 0j)
    assert not cfg.on_any_slit(0.7 + 0.2j)
    with pytest.raises(ConfigurationError):
        SlitConfiguration([(-1.0, -0.5), (0.5,)], 0.0)
    with pytest.raises(ConfigurationError):
        SlitConfiguration([(-1.0, math.nan)], AT_INFINITY)
