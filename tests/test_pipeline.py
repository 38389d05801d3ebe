import dataclasses
import importlib
import json
import logging
import pkgutil

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs

import inclusion_forge
from inclusion_forge import cli, figures, geometry, interior, mapper, pipeline, solvability
from inclusion_forge.model import (
    ConfigurationError, FreeParameters, Loading, MaterialSet, SolverError,
)


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
    assert res.diagnostics.geometry["contacts"] == []
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
    assert res.diagnostics.boundedness["rho_relative"] > res.diagnostics.gates["boundedness.rho"]["threshold"]
    # the violated-condition contours differ from the solved ones
    good = solve_figure("fig2c")
    assert (
        abs(res.profiles[0].points - good.profiles[0].points).max()
        > 0.01 * good.profiles[0].diameter
    )


def test_fig4d_is_invalid_geometry(solve_figure):
    res = solve_figure("fig4d")
    assert res.verdict == "INVALID-GEOMETRY"
    assert any(i != j for i, j in (c["contours"] for c in res.diagnostics.geometry["contacts"]))
    # boundedness itself is fine there
    assert res.diagnostics.boundedness["rho_relative"] < res.diagnostics.gates["boundedness.rho"]["threshold"]


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
    assert res.diagnostics.gates["schwarz.imF"]["value"] < 1e-12
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
    assert one == two
    assert "boundedness.a_scales" in one and "boundedness.rho_scales" in one


def test_diagnostics_report_the_kept_length_of_each_family(solve_figure):
    # one slit with its pole at infinity: phi = a_0 - c'' xi and g_0 + rho'_0
    # = c*_0 xi + rho'_0 are linear, two terms at most; fig1a's a_0 and c'' vanish
    assert solve_figure("fig1a").diagnostics.kept_length == {"phi": 0, "g0_rho": 2, "g1_weighted": 0}
    result = solve_figure("fig3a")
    kept = result.diagnostics.to_dict()["kept_length"]
    assert kept == result.slit_map.kept_lengths()
    assert all(type(v) is int for v in kept.values())
    # the density series reach their rounding plateau well before M + 1 = 65 terms
    assert 0 < max(kept.values()) == result.slit_map._coef.shape[-1] < 64


def test_determinism_of_diagnostics(tmp_path):
    # two solves of every bundled case and of a sixteen-slit layout write the
    # same diagnostics bytes and trace the same contours
    for name in [case.name for case in figures.FIGURE_CASES] + ["layout16"]:
        r1, r2 = (
            pipeline.solve(*slit_layout_inputs(16, 0)) if name == "layout16" else run_figure(name)
            for _ in range(2)
        )
        cli.write_diagnostics_json(r1, tmp_path / "1.json")
        cli.write_diagnostics_json(r2, tmp_path / "2.json")
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes(), name
        for p1, p2 in zip(r1.profiles, r2.profiles, strict=True):
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
    # one slit takes the stages of every n, less the moment system it does
    # not have, and its traced contour is held against the printed ellipse
    res = solve_figure("fig1a")
    assert res.verdict == "VALID"
    assert len(res.profiles) == 1
    assert geometry.fit_ellipse(res.profiles[0].points) < 1e-10
    assert res.diagnostics.solvability_cond is None  # no system is solved
    assert res.slit_map.branch.n == 1
    assert res.diagnostics.cross_check["applied"]
    # the printed contour, to the rounding of its size (1.9e-16 of its diameter measured)
    _, loading, materials, free, numerics, _ = load_figure_inputs("fig1a")
    grid = geometry.bank_parameter_grid(-1.0, 1.0, numerics.P)[None]
    printed = geometry.build_profiles(
        grid, np.array([mapper.n1_slit_profile(grid, bank, loading, materials, free) for bank in (+1, -1)])
    )[0]
    points = res.profiles[0].points
    assert points.shape == printed.points.shape
    assert np.abs(points - printed.points).max() <= 1e-15 * printed.diameter


def test_the_single_inclusion_cross_check_refuses_a_wrong_closed_form(monkeypatch):
    # a printed form blind to rho0: fig1a at rho0 = 1/2 moves the general
    # contour by rho0 / tau_bar, and this one not at all
    free = FreeParameters(rho0=0.5)
    assert run_figure("fig1a", free=free).diagnostics.cross_check["applied"]

    printed = mapper.n1_slit_profile

    def without_rho0(xi, bank, loading, materials, free):
        return printed(xi, bank, loading, materials, dataclasses.replace(free, rho0=0.0))

    monkeypatch.setattr(mapper, "n1_slit_profile", without_rho0)
    with pytest.raises(SolverError, match="^the printed closed forms disagree with the general path"):
        run_figure("fig1a", free=free)


def test_a_collapsed_single_inclusion_is_refused():
    # every |delta| = 1 collapses the inclusion to a segment; at tau = 1 and
    # kappa = 5, tau_inf = 1, 0.2 and 0.6 - 0.4i give delta = -1, +1 and i.
    # Each is traced, agrees with its printed form, and is refused by the
    # geometry gates of every n, with no floating-point fault on the way
    cfg, _, materials, free, numerics, _ = load_figure_inputs("fig1a")
    for tau_inf, delta in ((1.0, -1.0), (0.2, 1.0), (0.6 - 0.4j, 1j)):
        loading = Loading(1.0, 0.0, complex(tau_inf).real, complex(tau_inf).imag)
        assert abs(mapper.n1_shape_ratio(loading, materials) - delta) < 1e-15
        with np.errstate(all="raise"):
            diag = pipeline.solve(cfg, loading, materials, free, numerics).diagnostics
        assert diag.verdict == "INVALID-GEOMETRY", delta
        assert diag.failed_gates == ["geometry.contacts", "geometry.degenerate"], delta
        assert diag.cross_check["applied"] and diag.cross_check["max_mismatch"] < 1e-15, delta


def _refuse_grading(monkeypatch):
    """Make the first two stages that read the constants fail the test if they run."""
    def unreached(*args, **kwargs):
        raise AssertionError("a stage ran on non-finite constants")

    monkeypatch.setattr(solvability, "boundedness_residuals", unreached)
    monkeypatch.setattr(mapper, "SlitMap", unreached)


def _refused_at_subnormal_mu(name, monkeypatch):
    """Solve a bundled case or a seed-0 ``layout<n>`` at mu = 1e-310 and expect c and e refused, with no FP fault."""
    if name.startswith("layout"):
        cfg, loading, materials, free, numerics = slit_layout_inputs(int(name[6:]), 0)
    else:
        cfg, loading, materials, free, numerics, _ = load_figure_inputs(name)
    loading = dataclasses.replace(loading, mu=1e-310)
    _refuse_grading(monkeypatch)
    with np.errstate(all="raise"), pytest.raises(SolverError, match="^the constants c, e are not finite$"):
        pipeline.solve(cfg, loading, materials, free, numerics)


@pytest.mark.parametrize("name", ["fig1b", "fig3a"])
def test_a_non_finite_cross_check_mismatch_is_refused(name, monkeypatch):
    # mu = 1e-310 is subnormal: the constants overflow, and the solve stops
    # at them, before any printed form or general path reads their NaN
    _refused_at_subnormal_mu(name, monkeypatch)


@pytest.mark.parametrize("name", ["fig1a", "fig4a", "layout4", "layout16"])
def test_non_finite_constants_are_refused_before_they_are_graded(name, monkeypatch):
    # fig4a's NaN sat second in a max of its cross-check, and from four slits
    # on no printed form is compared: every n stops at the constants
    _refused_at_subnormal_mu(name, monkeypatch)


def test_non_finite_solved_constants_are_refused_before_they_are_graded(monkeypatch):
    # finite loading constants, and a solve that returns a NaN rho
    solve_constants = solvability.solve_constants

    def nan_rho(period, derived, free):
        solved = solve_constants(period, derived, free)
        return solvability.build_constants(solved.a, solved.rho * np.nan, derived)

    monkeypatch.setattr(solvability, "solve_constants", nan_rho)
    _refuse_grading(monkeypatch)
    with pytest.raises(SolverError, match="^the constants rho, rho_prime are not finite$"):
        run_figure("fig1b")


def test_a_nan_printed_constant_fails_the_cross_check(monkeypatch):
    # the solved constants are finite; a NaN in the printed three-slit rho,
    # second to a finite a mismatch, still fails the check
    monkeypatch.setattr(solvability, "n3_closed_form_rho", lambda period, derived, rho0: np.full(3, np.nan))
    with pytest.raises(SolverError, match="disagree with the general path by nan$"):
        run_figure("fig3a")


def test_a_nan_closure_error_fails_the_closure_gate(monkeypatch):
    build = geometry.build_profiles

    def reopened(grid, omega):
        first, second = build(grid, omega)
        return [
            geometry.ContourProfile(0, first.points, first.xi, first.bank, 0.0),
            geometry.ContourProfile(1, second.points, second.xi, second.bank, np.nan),
        ]

    monkeypatch.setattr(geometry, "build_profiles", reopened)
    diag = run_figure("fig1b").diagnostics
    assert list(diag.closure_errors[:1]) == [0.0] and np.isnan(diag.closure_errors[1])
    assert np.isnan(diag.gates["closure"]["value"]) and not diag.gates["closure"]["passed"]
    assert diag.failed_gates == ["closure"]


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
    # checked before any stage of the solve
    cfg = load_figure_inputs(case)[0]
    with pytest.raises(ConfigurationError, match=f"^override {which} must hold {cfg.n} finite"):
        run_figure(case, **{f"override_{which}": _BAD_OVERRIDES[bad](cfg.n)})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", [
    {"override_a": [5.0]}, {"override_rho": [-3.0]},
    {"override_a": [5.0], "override_rho": [-3.0]},
])
def test_single_inclusion_rejects_overrides(overrides):
    # its constants are the free a_0 and rho_0: there are no solved ones to replace
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
    # the contours and the Schwarz residuals read the same traced values
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
        gates = solve_figure(case.name).diagnostics.gates
        assert max(gates["schwarz.imF"]["value"], gates["schwarz.omega"]["value"]) <= 1e-14, case.name


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
    # one slit has no moment system: that stage alone is skipped, and reads 0.0
    skipped = {"moments"} if result.slit_map.branch.n == 1 else set()
    assert {stage for stage, t in result.timings.items() if t == 0.0} == skipped
    assert "timings" not in result.diagnostics.to_dict()


@pytest.mark.parametrize("name", ["fig1a", "fig3a", "sixteen"])
def test_work_counts_the_bank_pass_apart_from_the_diagnostics(solve_figure, name):
    result = pipeline.solve(*sixteen_slit_inputs()) if name == "sixteen" else solve_figure(name)
    sm = result.slit_map
    assert result.work == sm.bank_work(sm.numerics.P)
    assert result.work["bank_terms"] > 0
    assert result.work["bank_nodes"] == (sm._nodes if name == "sixteen" else 0)
    assert "work" not in result.diagnostics.to_dict()


# -- the gate record -------------------------------------------------------------

_GATES = {
    "boundedness.a": "INVALID-UNBOUNDED",
    "boundedness.rho": "INVALID-UNBOUNDED",
    "schwarz.imF": "INVALID-UNBOUNDED",
    "schwarz.omega": "INVALID-UNBOUNDED",
    "closure": "INVALID-UNBOUNDED",
    "geometry.contacts": "INVALID-GEOMETRY",
    "geometry.degenerate": "INVALID-GEOMETRY",
}


def test_every_solve_records_the_seven_gates_and_reads_its_verdict_from_them(solve_figure):
    for case in figures.FIGURE_CASES:
        diag = solve_figure(case.name).diagnostics
        assert list(diag.gates) == list(_GATES), case.name
        for gate in diag.gates.values():
            assert set(gate) == {"value", "threshold", "unit", "passed"}
            assert type(gate["passed"]) is bool and gate["passed"] == (gate["value"] <= gate["threshold"])
        failed = diag.failed_gates
        assert diag.verdict == (_GATES[failed[0]] if failed else "VALID"), case.name
    # a single inclusion has no moment condition, so its boundedness gates
    # read 0 over no residuals; its Schwarz gates read its bank pass
    one = solve_figure("fig1a").diagnostics
    tol = load_figure_inputs("fig1a")[4].tol_solve
    assert one.boundedness["a_residuals"] == one.boundedness["rho_residuals"] == []
    assert [one.gates[name]["value"] for name in ("boundedness.a", "boundedness.rho")] == [0.0, 0.0]
    assert one.gates["schwarz.omega"]["value"] > 0.0
    tolerance_gates = ("boundedness.a", "boundedness.rho", "schwarz.imF", "schwarz.omega")
    assert [one.gates[name]["threshold"] for name in tolerance_gates] == [tol] * 4
    assert one.gates["closure"]["threshold"] == tol * one.geometry["diameters"][0]


def test_the_verdict_is_read_from_the_gate_record_alone():
    gates = {name: {"value": 0.0, "threshold": 1.0, "unit": "", "passed": True} for name in _GATES}
    assert pipeline._verdict(gates) == "VALID"
    for name, verdict in _GATES.items():
        assert pipeline._verdict({**gates, name: {**gates[name], "passed": False}}) == verdict
    # a failed unbounded gate decides, also where a geometry gate failed too
    both = {**gates, **{name: {**gates[name], "passed": False} for name in ("closure", "geometry.contacts")}}
    assert pipeline._verdict(both) == "INVALID-UNBOUNDED"


def _one_gate_failing(gate, monkeypatch):
    """The solve with ``gate`` alone past its threshold: by an input where one does it, else by patching its one value."""
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig1b")
    past = 10.0 * numerics.tol_solve
    if gate.startswith("boundedness."):
        name = gate.split(".")[1]
        solved = getattr(pipeline.solve(cfg, loading, materials, free, numerics).constants, name)
        return run_figure("fig1b", **{f"override_{name}": solved + [0.25, 0.0]})
    if gate == "geometry.contacts":
        return run_figure("fig4d")
    if gate.startswith("schwarz."):
        residuals = pipeline._schwarz_residuals
        at = ["schwarz.imF", "schwarz.omega"].index(gate)
        monkeypatch.setattr(
            pipeline, "_schwarz_residuals",
            lambda *args: tuple(past if i == at else r for i, r in enumerate(residuals(*args))),
        )
    elif gate == "closure":
        build = geometry.build_profiles

        def reopened(grid, omega):
            first, *rest = build(grid, omega)
            gap = past * max(p.diameter for p in [first, *rest])
            return [geometry.ContourProfile(0, first.points, first.xi, first.bank, gap), *rest]

        monkeypatch.setattr(geometry, "build_profiles", reopened)
    else:  # collapsed inputs fail geometry.contacts as well
        monkeypatch.setattr(geometry.ContourProfile, "degenerate", property(lambda p: p.slit_index == 0))
    return pipeline.solve(cfg, loading, materials, free, numerics)


@pytest.mark.parametrize("gate", list(_GATES))
def test_each_gate_fails_alone_with_the_verdict_of_its_family(gate, monkeypatch):
    diag = _one_gate_failing(gate, monkeypatch).diagnostics
    assert diag.failed_gates == [gate]
    record = diag.gates[gate]
    assert record["value"] > record["threshold"] and not record["passed"]
    assert diag.verdict == _GATES[gate]


def _fig3a_near_unit_kappa(kappa=1.0 + 1e-9):
    cfg, loading, _, free, numerics, _ = load_figure_inputs("fig3a")
    return cfg, loading, MaterialSet([0.1, 0.1, kappa]), free, numerics


def test_fig3a_at_kappa_near_one_names_the_gates_that_fail():
    # both moment conditions hold to rounding, and so do both Schwarz
    # conditions relative to the terms they sum; two contact records decide
    inputs = _fig3a_near_unit_kappa()
    diag = pipeline.solve(*inputs).diagnostics
    assert diag.verdict == "INVALID-GEOMETRY"
    assert diag.failed_gates == ["geometry.contacts"]
    omega = diag.gates["schwarz.omega"]
    assert omega["unit"].startswith("relative") and omega["threshold"] == inputs[-1].tol_solve
    assert omega["value"] < 1e-15
    assert diag.gates["geometry.contacts"]["value"] == 2
    assert max(diag.boundedness["a_relative"], diag.boundedness["rho_relative"]) < 1e-14
    for kappa in (1.0 - 1e-9, 1.0 + 1e-12):
        assert pipeline.solve(*_fig3a_near_unit_kappa(kappa)).verdict == "INVALID-GEOMETRY", kappa


def test_a_schwarz_residual_reads_an_exact_zero_as_zero_at_any_scale_and_fails_a_nan():
    # equal stresses and c_m1 = i: a_j and the pole density vanish, so the Im F
    # residual has no scale; its exact 0 must not read 0/0
    cfg, _, materials, _, numerics, _ = load_figure_inputs("fig1b")
    result = pipeline.solve(cfg, Loading(1.0, 0.0, 1.0, 0.0), materials, FreeParameters(c_m1=1j), numerics)
    assert result.diagnostics.gates["schwarz.imF"]["value"] == 0.0
    ends = np.reshape(cfg.endpoints, (cfg.n, 2))
    grid = geometry.bank_parameter_grid(ends[:, :1], ends[:, 1:], numerics.P)
    boundary = result.slit_map.banks(grid)
    for at, field in enumerate(("F", "omega")):
        values = getattr(boundary, field).copy()
        values[1, 0, 3] = complex(np.nan, np.nan)
        residuals = pipeline._schwarz_residuals(
            boundary._replace(**{field: values}), grid, result.derived, result.constants
        )
        assert not residuals[at] <= numerics.tol_solve, field


def test_fig3a_gets_one_verdict_whatever_the_scale_of_mu():
    # mu scales c and e_j by 1/mu and lambda_j by mu; each Schwarz residual
    # scales with the terms it is stated relative to
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig3a")
    verdicts = {
        mu: pipeline.solve(cfg, dataclasses.replace(loading, mu=mu), materials, free, numerics).verdict
        for mu in (1.0, 1e-8, 1e-100, 1e-300)
    }
    assert set(verdicts.values()) == {"VALID"}, verdicts


def test_the_verdict_is_logged_at_info_with_its_failed_gates(caplog):
    caplog.set_level(logging.INFO, logger="inclusion_forge.pipeline")
    for case, message in (
        ("fig4d", "verdict INVALID-GEOMETRY; failed gates: geometry.contacts 3 > 0 (contact records)"),
        ("fig1a", "verdict VALID; failed gates: none"),
    ):
        caplog.clear()
        run_figure(case)
        assert [r.getMessage() for r in caplog.records if r.name == "inclusion_forge.pipeline"] == [message]
        assert all(r.levelno == logging.INFO for r in caplog.records if r.name == "inclusion_forge.pipeline")


def test_logging_does_no_work_below_its_level(caplog, monkeypatch):
    # with INFO off for the package, no log call is made, so none of their
    # arguments is formed
    caplog.set_level(logging.WARNING, logger="inclusion_forge")

    def refuse(*args, **kwargs):
        raise AssertionError("a log call below the logger's level")

    for module in (pipeline, mapper, interior):
        for level in ("debug", "info"):
            monkeypatch.setattr(module.log, level, refuse)
    sm = pipeline.solve(*sixteen_slit_inputs()).slit_map
    sm.omega_interior(np.array([0.1 + 2.0j, 0.05 + 0.01j, 40.0 + 1.0j]))
    run_figure("fig3a").slit_map.F_interior(np.array([0.3 + 0.7j]))
