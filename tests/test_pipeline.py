import importlib
import json
import pkgutil

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs

import inclusion_forge
from inclusion_forge import cli, figures, mapper, pipeline
from inclusion_forge.model import ConfigurationError, FreeParameters


def run_figure(name, **kwargs):
    cfg, loading, materials, free, numerics, overrides = load_figure_inputs(name)
    free = kwargs.pop("free", free)
    return pipeline.solve(
        cfg, loading, materials, free, numerics,
        override_a=kwargs.pop("override_a", overrides.get("a")),
        override_rho=kwargs.pop("override_rho", overrides.get("rho")),
    )


def test_every_exported_name_resolves():
    modules = [inclusion_forge] + [
        importlib.import_module(f"inclusion_forge.{info.name}")
        for info in pkgutil.iter_modules(inclusion_forge.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert inclusion_forge in exporting and len(exporting) >= 2
    for module in exporting:
        stale = [name for name in module.__all__ if not hasattr(module, name)]
        assert not stale, (module.__name__, stale)


def test_fig1b_is_valid_with_two_disjoint_contours(solve_figure):
    res = solve_figure("fig1b")
    assert res.verdict == "VALID"
    assert len(res.profiles) == 2
    assert res.diagnostics.geometry["pairwise_disjoint"]
    assert np.isfinite(res.diagnostics.solvability_cond)
    assert res.diagnostics.solvability_cond >= 1.0


def test_many_slit_diagnostics_are_valid_json(tmp_path):
    # the determinant this key replaced overflowed to inf past n ~ 48 and was
    # written as the token Infinity; the cond of the system solved stays a
    # finite number well inside the float range
    res = pipeline.solve(*slit_layout_inputs(40))
    assert 1.0 <= res.diagnostics.solvability_cond < 1e7
    path = tmp_path / "d.json"
    cli.write_diagnostics_json(res, path)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    assert doc["diagnostics"]["solvability_cond"] == res.diagnostics.solvability_cond


def test_fig2d_override_is_unbounded_but_still_traced(solve_figure):
    res = solve_figure("fig2d")
    assert res.verdict == "INVALID-UNBOUNDED"
    assert len(res.profiles) == 2
    assert res.diagnostics.boundedness["rho_relative"] > res.diagnostics.tol_solve
    # the violated-condition contours differ from the solved ones
    good = solve_figure("fig2c")
    assert (
        abs(res.profiles[0].points - good.profiles[0].points).max()
        > 0.01 * good.profiles[0].diameter
    )


def test_fig4d_is_invalid_geometry(solve_figure):
    res = solve_figure("fig4d")
    assert res.verdict == "INVALID-GEOMETRY"
    assert not res.diagnostics.geometry["pairwise_disjoint"]
    # boundedness itself is fine there
    assert res.diagnostics.boundedness["rho_relative"] < res.diagnostics.tol_solve


def test_override_with_solved_values_is_identity(solve_figure):
    base = solve_figure("fig1b")
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig1b")
    re_run = pipeline.solve(
        cfg, loading, materials, free, numerics,
        override_a=base.constants.a, override_rho=base.constants.rho,
    )
    np.testing.assert_array_equal(re_run.constants.a, base.constants.a)
    np.testing.assert_array_equal(re_run.constants.rho, base.constants.rho)
    for p1, p2 in zip(re_run.profiles, base.profiles):
        np.testing.assert_array_equal(p1.points, p2.points)
    assert json.dumps(re_run.diagnostics.to_dict(), sort_keys=True) == json.dumps(
        base.diagnostics.to_dict(), sort_keys=True
    )


def test_override_rho_only_breaks_one_condition(solve_figure):
    base = solve_figure("fig1b")
    # a common shift of rho lies in the kernel of the boundedness moments
    # (it corresponds to translating the contours), so it stays valid
    shifted = run_figure("fig1b", override_rho=base.constants.rho + 0.25)
    assert shifted.verdict == "VALID"
    # shifting a single entry breaks the second condition but not the first
    rho_bad = base.constants.rho.copy()
    rho_bad[0] += 0.25
    res = run_figure("fig1b", override_rho=rho_bad)
    assert res.diagnostics.schwarz["imF_max_dev"] < 1e-12
    assert res.diagnostics.boundedness["a_relative"] < 1e-12
    assert res.diagnostics.boundedness["rho_relative"] > 1e-3
    assert res.verdict == "INVALID-UNBOUNDED"


def _key_paths(tree, prefix=""):
    """The dotted path of every key in a tree of dicts."""
    paths = set()
    for key, value in tree.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, prefix + key + ".")
    return paths


def test_single_inclusion_diagnostics_carry_the_keys_of_many(solve_figure):
    one = _key_paths(solve_figure("fig1a").diagnostics.to_dict())
    two = _key_paths(solve_figure("fig1b").diagnostics.to_dict())
    assert one - {"geometry.ellipse_fit_residual"} == two
    assert "boundedness.a_scales" in one and "boundedness.rho_scales" in one


def test_diagnostics_report_the_kept_length_of_each_family(solve_figure):
    assert solve_figure("fig1a").diagnostics.kept_length == {"phi": 0, "g0_rho": 0, "g1_weighted": 0}
    result = solve_figure("fig3a")
    kept = result.diagnostics.to_dict()["kept_length"]
    assert kept == result.slit_map.kept_lengths()
    assert all(type(v) is int for v in kept.values())
    # the density series reach their rounding plateau well before M + 1 = 65 terms
    assert 0 < max(kept.values()) == result.slit_map._coef.shape[-1] < 64


def test_determinism_of_diagnostics(solve_figure):
    r1 = run_figure("fig3c")
    r2 = run_figure("fig3c")
    assert json.dumps(r1.diagnostics.to_dict(), sort_keys=True) == json.dumps(
        r2.diagnostics.to_dict(), sort_keys=True
    )
    for p1, p2 in zip(r1.profiles, r2.profiles):
        np.testing.assert_array_equal(p1.points, p2.points)


def test_translation_covariance_is_exact():
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig1b")
    base = pipeline.solve(cfg, loading, materials, free, numerics)
    shift = 2.5 - 1.25j
    moved = pipeline.solve(
        cfg, loading, materials,
        FreeParameters(
            a0=free.a0, rho0=free.rho0, c_m1=free.c_m1, gamma=shift, beta0=free.beta0
        ),
        numerics,
    )
    for p1, p2 in zip(base.profiles, moved.profiles):
        np.testing.assert_array_equal(p1.points + shift, p2.points)
    assert moved.verdict == base.verdict


def test_positive_scaling_covariance():
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig1b")
    base = pipeline.solve(cfg, loading, materials, free, numerics)
    s = 2.0
    scaled = pipeline.solve(
        cfg, loading, materials,
        FreeParameters(c_m1=s * free.c_m1), numerics,
    )
    for p1, p2 in zip(base.profiles, scaled.profiles):
        np.testing.assert_allclose(s * p1.points, p2.points, atol=1e-12)
    assert scaled.verdict == base.verdict


def test_single_inclusion_route(solve_figure):
    res = solve_figure("fig1a")
    assert res.verdict == "VALID"
    assert len(res.profiles) == 1
    assert res.diagnostics.geometry["ellipse_fit_residual"] < 1e-10
    assert res.diagnostics.solvability_cond is None  # no system is solved
    assert res.slit_map is None


def test_validation_failures_raise():
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig1b")
    from inclusion_forge.model import MaterialSet

    with pytest.raises(ConfigurationError, match=r"kappa\[0\] = 1 makes the contrast"):
        pipeline.solve(cfg, loading, MaterialSet([1.0, 5.0]), free, numerics)
    with pytest.raises(ConfigurationError):
        pipeline.solve(
            cfg, loading, materials, free, numerics, override_a=[1.0, 2.0, 3.0]
        )


_BAD_OVERRIDES = {
    "nan": lambda n: [float("nan")] + [0.0] * (n - 1),
    "inf": lambda n: [0.0] * (n - 1) + [float("inf")],
    "short": lambda n: [0.0] * (n - 1),
    "long": lambda n: [1.0, 2.0, float("nan")] + [0.0] * (n - 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which", ["a", "rho"])
@pytest.mark.parametrize("bad", sorted(_BAD_OVERRIDES))
@pytest.mark.parametrize("case", ["fig1a", "fig3a"])
def test_overrides_must_be_n_finite_numbers(case, bad, which):
    # checked before the n = 1 branch, whose closed forms never read them
    cfg = load_figure_inputs(case)[0]
    with pytest.raises(ConfigurationError, match=f"^override {which} must hold {cfg.n} finite"):
        run_figure(case, **{f"override_{which}": _BAD_OVERRIDES[bad](cfg.n)})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", [
    {"override_a": [5.0]}, {"override_rho": [-3.0]},
    {"override_a": [5.0], "override_rho": [-3.0]},
])
def test_single_inclusion_rejects_overrides(overrides):
    # its elliptic closed forms have no solved constants to replace
    with pytest.raises(ConfigurationError, match="^overrides need n >= 2"):
        run_figure("fig1a", **overrides)


@pytest.mark.filterwarnings("error")
def test_single_inclusion_rejects_antisymmetric_selection():
    # no second slit to mirror: a = [a0] would be graded as if selected
    free = FreeParameters(a0=0.7, rho0=-0.2, antisymmetric=True)
    with pytest.raises(ConfigurationError, match="^antisymmetric selection needs at least two slits"):
        run_figure("fig1a", free=free)


@pytest.mark.parametrize("case", ["fig3a", "sixteen"])
def test_solve_makes_one_boundary_pass(monkeypatch, case):
    # the contours and the Schwarz report read the same traced values
    shapes = []
    original = mapper.SlitMap.banks

    def counted(self, xi):
        shapes.append(np.shape(xi))
        return original(self, xi)

    monkeypatch.setattr(mapper.SlitMap, "banks", counted)
    inputs = sixteen_slit_inputs() if case == "sixteen" else load_figure_inputs(case)[:5]
    result = pipeline.solve(*inputs)
    assert shapes == [(result.slit_map.branch.n, inputs[4].P)]


def test_schwarz_residuals_at_every_traced_vertex_stay_at_rounding(solve_figure):
    for case in figures.FIGURE_CASES:
        schwarz = solve_figure(case.name).diagnostics.schwarz
        assert max(schwarz.values()) <= 1e-14, case.name


def test_verdict_shortcuts(solve_figure):
    assert solve_figure("fig1b").valid
    assert not solve_figure("fig4d").valid


def test_four_inclusions_via_general_path():
    from inclusion_forge.model import (
        Loading,
        MaterialSet,
        NumericsConfig,
        SlitConfiguration,
    )

    cfg = SlitConfiguration(
        [(-1.0, -0.8), (-0.45, -0.35), (0.1, 0.2), (0.7, 1.0)], 5j
    )
    res = pipeline.solve(
        cfg,
        Loading(1.0, 1.0, -1.0, 1.0),
        MaterialSet([5.0, 0.5, 2.0, 0.2]),
        FreeParameters(),
        NumericsConfig(),
    )
    assert res.verdict == "VALID"
    assert len(res.profiles) == 4
    b = res.diagnostics.boundedness
    assert max(b["a_relative"], b["rho_relative"]) < 1e-12
    # no closed form exists at this connectivity; the cross-check is skipped
    assert not res.diagnostics.cross_check["applied"]


def test_degenerate_configuration_is_flagged():
    # equal stresses and an orthogonal scaling: every density vanishes and
    # the contours collapse to the image of the bare singular part
    cfg, loading, materials, _, numerics, _ = load_figure_inputs("fig1b")
    from inclusion_forge.model import Loading

    equal = Loading(1.0, 0.0, 1.0, 0.0)
    res = pipeline.solve(
        cfg, equal, materials, FreeParameters(c_m1=1j), numerics
    )
    assert res.verdict == "INVALID-GEOMETRY"
    assert all(res.diagnostics.geometry["degenerate"])


@pytest.mark.parametrize("name", ["fig1a", "fig3a"])
def test_stage_timings_cover_every_stage(solve_figure, name):
    result = solve_figure(name)
    assert list(result.timings) == list(pipeline.STAGES)
    assert all(isinstance(t, float) and t >= 0.0 for t in result.timings.values())
    if result.slit_map is not None:
        assert all(t > 0.0 for t in result.timings.values())
    assert "timings" not in result.diagnostics.to_dict()


@pytest.mark.parametrize("name", ["fig1a", "fig3a", "sixteen"])
def test_work_counts_the_bank_pass_apart_from_the_diagnostics(solve_figure, name):
    result = pipeline.solve(*sixteen_slit_inputs()) if name == "sixteen" else solve_figure(name)
    sm = result.slit_map
    if sm is None:  # a single inclusion: closed forms, no bank pass
        assert result.work == {"bank_terms": 0, "bank_nodes": 0}
    else:
        assert result.work == sm.bank_work(sm.numerics.P)
        assert result.work["bank_terms"] > 0
        assert result.work["bank_nodes"] == (sm._nodes if name == "sixteen" else 0)
    assert "work" not in result.diagnostics.to_dict()
