"""The forward check: the antiplane transmission problem solved on the traced contours.

:func:`oracles.forward_interior_stress` reads only the contours, kappa,
tau_inf and mu.  Where the map is univalent the construction makes every
inclusion uniformly stressed at tau; a folded map traces contours whose
interiors are not (ROADMAP item 19).
"""

import numpy as np
from conftest import slit_layout_inputs
from oracles import forward_interior_stress

from inclusion_forge import figures, pipeline
from inclusion_forge.model import Loading, MaterialSet, NumericsConfig

_EPS = 2.0**-52


def _spread_and_offset(stresses, tau):
    """The largest deviation of the interior stress from its mean, relative to
    that mean, and from tau, relative to |tau|, over every inclusion."""
    spread = max(float(np.abs(s - s.mean()).max() / abs(s.mean())) for s in stresses)
    offset = max(float(np.abs(s - tau).max()) for s in stresses) / abs(tau)
    return spread, offset


def test_the_forward_oracle_gives_eshelbys_interior_field_of_an_ellipse():
    # in the frame of an ellipse of semi-axes a, b the interior gradient is
    # (a + b)/(a + kappa b) G_x' and (a + b)/(b + kappa a) G_y'.  On m nodes
    # the trapezoidal rule converges like ((a - b)/(a + b))^m on the
    # contour, and like exp(-m d) at a point whose preimage lies d off the
    # real parameter axis: d >= 0.3 at 0.2-0.4 of the way to the vertices of
    # an ellipse of aspect ratio at most 2.  At m = 256 both are far below
    # the rounding of the m-term sums, m eps
    rng = np.random.default_rng(7)
    m = 256
    t = 2.0 * np.pi * np.arange(m + 1) / m
    for _ in range(8):
        a, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, np.pi)
        b = a * np.exp(rng.uniform(-np.log(2.0), np.log(2.0)))
        kappa, grad = float(np.exp(rng.uniform(-3.0, 3.0))), complex(*rng.normal(size=2))
        turn = np.exp(1j * angle)
        contour = turn * (a * np.cos(t) + 1j * b * np.sin(t))
        (stress,) = forward_interior_stress([contour], [kappa], 2.0 * grad, mu=2.0)
        g = grad / turn
        inner = turn * ((a + b) / (a + kappa * b) * g.real + 1j * (a + b) / (b + kappa * a) * g.imag)
        assert np.abs(stress / (2.0 * kappa) - inner).max() <= m * _EPS * abs(grad)


def test_no_bundled_case_of_two_or_more_slits_is_uniformly_stressed(solve_figure):
    # a recorded fact: the folded maps of the corpus (orientation +1) trace
    # contours whose interior fields spread by 3.5e-3 to 9e-2 of their mean.
    # Every other vertex of the traced contour is still equispaced in the
    # bank angle, at a quarter of the cost of the solve
    for case in figures.FIGURE_CASES:
        result = solve_figure(case.name)
        if len(result.profiles) < 2:
            continue
        doc = figures.load_case(case.name)
        loading = doc["loading"]
        stresses = forward_interior_stress(
            [p.points[::2] for p in result.profiles], doc["kappa"],
            complex(loading["tau1_inf"], loading["tau2_inf"]), loading.get("mu", 1.0),
        )
        spread, _ = _spread_and_offset(stresses, complex(loading["tau1"], loading["tau2"]))
        assert spread > 1e-4, case.name


def test_the_single_inclusion_of_fig1a_is_uniformly_stressed_off_tau(solve_figure):
    # a folded n = 1 map (|delta| = 2.92) still traces an ellipse, so its
    # interior field is uniform, but it is not tau
    result = solve_figure("fig1a")
    doc = figures.load_case("fig1a")
    loading = doc["loading"]
    points = result.profiles[0].points
    tau = complex(loading["tau1"], loading["tau2"])
    stresses = forward_interior_stress(
        [points], doc["kappa"], complex(loading["tau1_inf"], loading["tau2_inf"]), loading.get("mu", 1.0),
    )
    spread, offset = _spread_and_offset(stresses, tau)
    assert spread <= (len(points) - 1) * _EPS
    assert offset > 1e-4


def test_a_univalent_eight_slit_map_is_uniformly_stressed_at_tau():
    # the slits of slit_layout_inputs(8, 0) at kappa = 0.3, tau = 1 + i and
    # tau_inf = tau (1 + kappa)/(2 kappa), the loading of the n = 1 circle,
    # zeta_inf = 0.3 + 3i: every contour is clockwise as traced, and the
    # forward field is tau to the resolution of the densities (their
    # largest truncation indicator) and the oracle's rounding (one eps per
    # node it sums)
    cfg, _, _, free, _ = slit_layout_inputs(8, 0)
    kappa, tau = 0.3, 1.0 + 1.0j
    tau_inf = tau * (1.0 + kappa) / (2.0 * kappa)
    loading = Loading(tau.real, tau.imag, tau_inf.real, tau_inf.imag)
    result = pipeline.solve(cfg, loading, MaterialSet([kappa] * 8), free, NumericsConfig(P=32))
    assert result.diagnostics.geometry["orientation"] == [-1] * 8
    stresses = forward_interior_stress([p.points for p in result.profiles], [kappa] * 8, tau_inf)
    spread, offset = _spread_and_offset(stresses, tau)
    bound = max(result.diagnostics.truncation.values()) + sum(len(p.points) - 1 for p in result.profiles) * _EPS
    assert spread <= bound and offset <= bound
