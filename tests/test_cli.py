import copy
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest
from oracles import read_contours_csv, render_svg_per_point, write_contours_csv_per_row

from inclusion_forge import cli, figures, pipeline
from inclusion_forge.cli import (
    CONFIG_SCHEMA,
    CliError,
    parse_config,
    render_svg,
)
from inclusion_forge.geometry import ContourProfile
from inclusion_forge.mapper import n1_circular_profile
from inclusion_forge.model import FreeParameters, Loading, NumericsConfig


@pytest.fixture
def fig1b_path(tmp_path):
    path = tmp_path / "fig1b.json"
    path.write_text(json.dumps(figures.load_case("fig1b")))
    return path


def test_solve_writes_all_outputs(tmp_path, fig1b_path, capsys):
    out, svg, diag = tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "d.json"
    code = cli.main([
        "solve", "--config", str(fig1b_path),
        "--out", str(out), "--svg", str(svg), "--diag", str(diag),
    ])
    assert code == 0
    assert "verdict: VALID" in capsys.readouterr().out
    doc = json.loads(diag.read_text())
    assert doc["diagnostics"]["verdict"] == "VALID"
    assert svg.read_text().startswith("<svg")
    assert out.read_text().splitlines()[0] == "slit_index,bank,xi,re_z,im_z"


def test_csv_round_trip_is_bit_exact(tmp_path, fig1b_path, solve_figure):
    out = tmp_path / "c.csv"
    assert cli.main(["solve", "--config", str(fig1b_path), "--out", str(out)]) == 0
    polylines = read_contours_csv(out)
    res = solve_figure("fig1b")
    for p in res.profiles:
        np.testing.assert_array_equal(polylines[p.slit_index], p.points)


def _solve_doc(doc: dict, P: int | None = None) -> pipeline.SolveResult:
    cfg, loading, materials, free, numerics, overrides = parse_config(doc)
    if P is not None:
        numerics = dataclasses.replace(numerics, P=P)
    return pipeline.solve(
        cfg, loading, materials, free, numerics,
        override_a=overrides.get("a"), override_rho=overrides.get("rho"),
    )


def _many_slits_results(seed: int) -> list[pipeline.SolveResult]:
    """The n = 16 layouts the benchmark's many_slits workload solves at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    docs = workloads.generate("many_slits", seed, None).docs
    return [_solve_doc(doc) for doc in docs.values()]


def _hand_built(values: np.ndarray) -> SimpleNamespace:
    """A result of two contours whose coordinates and parameters are ``values``."""
    k = len(values)
    bank = np.where(np.arange(k) % 2 == 0, 1, -1)
    z = np.empty(k, dtype=complex)  # 1j * inf would be nan + inf j
    z.real, z.imag = values, values[::-1]
    return SimpleNamespace(profiles=[
        ContourProfile(0, z, values, bank, 0.0),
        ContourProfile(3, z[::-1], values[::-1], -bank, 0.0),
    ])


_EXTREMES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    np.nan, np.inf, -np.inf, 1.0, -1.0, 0.1, 1e16, 123456789.0,
])


@pytest.mark.parametrize("case", [
    "corpus", "many_slits-seed0", "many_slits-seed7", "fig3a-P800",
    "special-values", "round-trip",
])
def test_csv_writer_matches_the_per_row_oracle(tmp_path, solve_figure, rng, case):
    if case == "corpus":
        results = [solve_figure(c.name) for c in figures.FIGURE_CASES]
    elif case.startswith("many_slits"):
        results = _many_slits_results(int(case.removeprefix("many_slits-seed")))
    elif case == "fig3a-P800":
        results = [_solve_doc(figures.load_case("fig3a"), P=800)]
    elif case == "special-values":
        results = [_hand_built(_EXTREMES)]
    else:
        values = rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50)
        results = [_hand_built(values)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for result in results:
        cli.write_contours_csv(result, got)
        write_contours_csv_per_row(result, want)
        assert got.read_bytes() == want.read_bytes()
    if case == "round-trip":  # 17 significant digits give back every double
        polylines = read_contours_csv(got)
        for p in results[0].profiles:
            np.testing.assert_array_equal(polylines[p.slit_index], p.points)


def _figure_drawing(case, solve_figure) -> tuple[list[np.ndarray], list[str] | None]:
    """The contours and labels reproduce-figures draws for a bundled case."""
    contours = [p.points for p in solve_figure(case.name).profiles]
    if not case.overlay_circular:
        return contours, None
    _cfg, loading, materials, free, numerics, _ = parse_config(figures.load_case(case.name))
    phi = np.linspace(0.0, 2.0 * np.pi, numerics.P * 2 + 1)
    return contours + [n1_circular_profile(phi, loading, materials, free)], [
        "slit map", "circular map"
    ]


_FINITE = _EXTREMES[np.isfinite(_EXTREMES)]


@pytest.mark.parametrize("case", [
    "corpus", "many_slits-seed0", "many_slits-seed7", "fig3a-P800", "special-values",
])
def test_svg_writer_matches_the_per_point_oracle(solve_figure, case):
    if case == "corpus":
        drawings = [_figure_drawing(c, solve_figure) for c in figures.FIGURE_CASES]
        assert sum(labels is not None for _, labels in drawings) == 1
    elif case == "special-values":
        # one frame each: nan everywhere; infinite extents; extents that
        # overflow; page coordinates that overflow to inf; subnormals
        drawings = [
            ([p.points for p in _hand_built(values).profiles], None)
            for values in (
                _EXTREMES, _EXTREMES[~np.isnan(_EXTREMES)], _FINITE,
                np.array([1e308, 0.0, -0.0, 5e-324, -1.0]), _FINITE[np.abs(_FINITE) < 1e300],
            )
        ]
        assert "inf," in render_svg_per_point(*drawings[3])
    else:
        if case == "fig3a-P800":
            results = [_solve_doc(figures.load_case("fig3a"), P=800)]
        else:
            results = _many_slits_results(int(case.removeprefix("many_slits-seed")))
        drawings = [([p.points for p in r.profiles], None) for r in results]
    for contours, labels in drawings:
        assert render_svg(contours, labels) == render_svg_per_point(contours, labels)


def test_svg_labels_the_first_contours_with_escaped_text():
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9))
    svg = render_svg([z, z + 3.0, z + 6.0], ["a<b & c", "d"])
    texts = ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts] == ["a<b & c", "d"]


def test_invalid_geometry_exits_one_with_svg(tmp_path):
    cfg_path = tmp_path / "fig4d.json"
    cfg_path.write_text(json.dumps(figures.load_case("fig4d")))
    svg = tmp_path / "f.svg"
    code = cli.main(["solve", "--config", str(cfg_path), "--svg", str(svg)])
    assert code == 1
    assert svg.exists()


def test_malformed_json_exits_two_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,,}')
    code = cli.main(["solve", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_schema_violation_exits_two(tmp_path, capsys):
    doc = figures.load_case("fig1b")
    doc["kappa"] = "not-a-list"
    path = tmp_path / "bad_schema.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, fig1b_path, capsys):
    assert cli.main(["validate", "--config", str(fig1b_path)]) == 0
    doc = figures.load_case("fig1b")
    doc["kappa"] = [1.0, 5.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--config", str(bad)]) == 2
    assert "singular" in capsys.readouterr().out


def test_override_flags(tmp_path, fig1b_path):
    diag = tmp_path / "d.json"
    code = cli.main([
        "solve", "--config", str(fig1b_path),
        "--override-rho", "0.5,0.0", "--diag", str(diag),
    ])
    assert code == 1
    doc = json.loads(diag.read_text())
    assert doc["diagnostics"]["verdict"] == "INVALID-UNBOUNDED"
    assert doc["constants"]["rho"] == [0.5, 0.0]


def test_tolerance_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "fig2d.json"
    cfg_path.write_text(json.dumps(figures.load_case("fig2d")))
    assert cli.main(["solve", "--config", str(cfg_path)]) == 1
    monkeypatch.setenv("INCLUSION_FORGE_TOL", "10.0")
    assert cli.main(["solve", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("section, key, value", [
    ("free", "a0", float("nan")),
    ("free", "rho0", float("inf")),
    ("free", "beta0", float("nan")),
    ("free", "c_m1", {"re": float("nan")}),
    ("free", "c_m1", {"re": 1.0, "im": -float("inf")}),
    ("free", "gamma", {"re": float("inf")}),
    ("free", "gamma", {"re": 0.0, "im": float("nan")}),
    ("numerics", "tol_solve", float("inf")),
    ("numerics", "tol_solve", float("nan")),
])
def test_non_finite_free_constants_and_tolerance_exit_two(
    tmp_path, capsys, section, key, value
):
    doc = figures.load_case("fig3a")
    doc[section][key] = value
    with pytest.raises(CliError, match=f"^{key} must be finite"):
        parse_config(doc)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, key, value", [
    ("fig3a", "a", [float("nan"), 0.0, 0.0]),
    ("fig3a", "rho", [0.0, float("inf"), 0.0]),
    ("fig3a", "a", [0.0, 0.0]),
    ("fig1a", "a", [1.0, 2.0, float("nan")]),
    ("fig1a", "rho", [-float("inf")]),
])
def test_bad_config_overrides_exit_two(tmp_path, capsys, case, key, value):
    doc = figures.load_case(case)
    doc["overrides"] = {key: value}
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert f"error: override {key} must hold {doc['n']} finite numbers" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [("--override-a", "nan,0,0"), ("--override-rho", "0,inf,0")])
def test_non_finite_override_flags_exit_two(tmp_path, capsys, flag, value):
    path = tmp_path / "fig3a.json"
    path.write_text(json.dumps(figures.load_case("fig3a")))
    assert cli.main(["solve", "--config", str(path), flag, value]) == 2
    assert f"error: override {flag[11:]} must hold 3 finite numbers" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides, flags", [
    ({"a": [5.0]}, []), ({"rho": [-3.0]}, []), ({}, ["--override-a", "5"]),
])
def test_single_inclusion_overrides_exit_two(tmp_path, capsys, overrides, flags):
    doc = figures.load_case("fig1a")
    doc["overrides"] = overrides
    path = tmp_path / "fig1a.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path), *flags]) == 2
    assert "error: overrides need n >= 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_single_inclusion_antisymmetric_exits_two(tmp_path, capsys):
    doc = figures.load_case("fig1a")
    doc["free"].update(a0=0.7, rho0=-0.2, antisymmetric=True)
    path = tmp_path / "fig1a.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "fig1a.csv"
    assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert "error: antisymmetric selection needs at least two slits" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_tolerance_env_exits_two(fig1b_path, monkeypatch, capsys):
    monkeypatch.setenv("INCLUSION_FORGE_TOL", "inf")
    assert cli.main(["solve", "--config", str(fig1b_path)]) == 2
    assert "error: tol_solve must be finite" in capsys.readouterr().err


def test_malformed_tolerance_env_exits_two(tmp_path, fig1b_path, monkeypatch, capsys):
    monkeypatch.setenv("INCLUSION_FORGE_TOL", "abc")
    assert cli.main(["solve", "--config", str(fig1b_path)]) == 2
    assert "INCLUSION_FORGE_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("numerics", [{"N": 64.0}, {"M": 32.0}, {"P": 200.0}])
def test_integer_valued_float_numerics_are_accepted(tmp_path, numerics):
    doc = figures.load_case("fig1b")
    doc["numerics"] = numerics
    *_, parsed, _ = parse_config(doc)
    assert all(type(v) is int for v in (parsed.N, parsed.M, parsed.P))
    path = tmp_path / "float_numerics.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 0


def test_nodes_and_points_flags(tmp_path, fig1b_path):
    out = tmp_path / "c.csv"
    code = cli.main([
        "solve", "--config", str(fig1b_path),
        "--nodes", "96", "--points", "40", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    # 2 contours, each 2P-1 points (banks share endpoints, closed)
    assert len(lines) == 1 + 2 * (2 * 40 - 1)


@pytest.mark.parametrize("flag, value", [("--points", "5"), ("--nodes", "4")])
def test_out_of_range_numerics_flags_exit_two(fig1b_path, capsys, flag, value):
    assert cli.main(["solve", "--config", str(fig1b_path), flag, value]) == 2
    assert "must be >=" in capsys.readouterr().err


def test_svg_is_a_pure_function_of_the_result(tmp_path, fig1b_path):
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert cli.main(["solve", "--config", str(fig1b_path), "--svg", str(svg1)]) == 0
    assert cli.main(["solve", "--config", str(fig1b_path), "--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_render_svg_is_deterministic_and_equal_aspect():
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 33))
    one = render_svg([z])
    two = render_svg([z])
    assert one == two
    # square data box stays square on the page
    assert 'width="480" height="480.000"' in one


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", [
    [1000 + 1000j] * 3,
    [1000 + 1e6j] * 3,
    [1000 + 1e6j, 1000 + 1e-12 + 1e6j, 1000 + 1e6j],
])
def test_render_svg_frames_a_point_far_from_the_origin(points):
    # the padded frame must stay wider than the float spacing at its corner
    svg = render_svg([np.array(points)])
    root = ElementTree.fromstring(svg)
    assert "nan" not in svg
    assert float(root.get("width")) > 0.0 and float(root.get("height")) > 0.0


def test_parse_config_defaults(monkeypatch):
    monkeypatch.delenv("INCLUSION_FORGE_TOL", raising=False)
    doc = figures.load_case("fig3a")
    ld = doc["loading"]
    ld.pop("mu", None)
    optional = ("free", "numerics", "overrides")
    for sections in (dict.fromkeys(optional, {}), {}):  # empty, then absent
        for key in optional:
            doc.pop(key, None)
        doc.update(sections)
        _, loading, _, free, numerics, overrides = parse_config(doc)
        assert loading == Loading(ld["tau1"], ld["tau2"], ld["tau1_inf"], ld["tau2_inf"])
        assert free == FreeParameters()
        assert numerics == NumericsConfig()
        assert overrides == {}


def test_config_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def _unknown_numerics_key(doc):
    doc["numerics"] = {"N": 64, "eps_near": 1e-6}


def _zeta_inf_without_re(doc):
    doc["zeta_inf"] = {"im": 0.5}


def _three_element_slit(doc):
    doc["slits"][0] = [-1.0, -0.5, 0.0]


def _missing_tau1(doc):
    del doc["loading"]["tau1"]


@pytest.mark.parametrize("spoil", [
    _unknown_numerics_key, _zeta_inf_without_re, _three_element_slit, _missing_tau1,
])
def test_schema_messages_match_jsonschema_validate(spoil):
    doc = figures.load_case("fig1b")
    spoil(doc)
    with pytest.raises(jsonschema.ValidationError) as direct:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    with pytest.raises(CliError) as parsed:
        parse_config(doc)
    assert str(parsed.value) == f"config schema violation: {direct.value.message}"


_SWAPS = (
    "infinity", "x", None, True, False, 0, 3, -2, 1.5, [], [1.0, 2.0], {}, {"re": 1.0},
)
_EXTRA_KEYS = ("extra", "antisymmetric", "tol_solve", "im", "mu", "a", "free")


def _slots(node, out):
    """Every (container, key) pair below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _numpy_scalar(rng, v):
    if isinstance(v, bool):
        return np.bool_(v)
    if isinstance(v, int):
        return (np.int64, np.float64)[rng.integers(2)](v)
    if isinstance(v, float):
        return (np.float64, np.float32)[rng.integers(2)](v)
    return np.float64(1.0)


def _mutate(rng, doc):
    """One random edit: a type swap, a deletion, an extra key, NaN/inf, a bool
    for a number, a float for an integer, or a numpy scalar."""
    slots = _slots(doc, [])
    parent, key = slots[rng.integers(len(slots))]
    kind = rng.integers(7)
    if kind == 0:
        parent[key] = copy.deepcopy(_SWAPS[rng.integers(len(_SWAPS))])
    elif kind == 1:
        del parent[key]
    elif kind == 2:
        dicts = [doc] + [p[k] for p, k in slots if isinstance(p[k], dict)]
        target = dicts[rng.integers(len(dicts))]
        value = _SWAPS[rng.integers(len(_SWAPS))]
        target[_EXTRA_KEYS[rng.integers(len(_EXTRA_KEYS))]] = copy.deepcopy(value)
    elif kind == 3:
        parent[key] = (float("nan"), float("inf"), -float("inf"))[rng.integers(3)]
    elif kind == 4:
        parent[key] = bool(rng.integers(2))
    elif kind == 5:
        v = parent[key]
        whole = isinstance(v, (int, float)) and not isinstance(v, bool)
        parent[key] = float(v) + (0.0, 0.5)[rng.integers(2)] if whole else 200.0
    else:
        parent[key] = _numpy_scalar(rng, parent[key])


def test_schema_walker_accepts_exactly_what_jsonschema_accepts():
    rng = np.random.default_rng(1705)
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    bundled = [figures.load_case(case.name) for case in figures.FIGURE_CASES]
    accepted = disagreements = 0
    for trial in range(6000):
        doc = copy.deepcopy(bundled[trial % len(bundled)])
        for _ in range(rng.integers(4)):
            if isinstance(doc, dict) and doc:
                _mutate(rng, doc)
        verdict = validator.is_valid(doc)
        accepted += verdict
        disagreements += cli._conforms(doc, CONFIG_SCHEMA) != verdict
    assert disagreements == 0
    assert 1000 < accepted < 5000


def test_schema_walker_raises_on_a_keyword_it_has_no_check_for():
    schema = {"type": "object", "properties": {"n": {"type": "integer", "maximum": 3}}}
    with pytest.raises(ValueError, match="'maximum'"):
        cli._conforms({"n": 2}, schema)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )


_SOLVE_EVERY_CASE = """
import sys
from inclusion_forge import cli, figures, pipeline
for case in figures.FIGURE_CASES:
    cfg, loading, materials, free, numerics, ov = cli.parse_config(figures.load_case(case.name))
    result = pipeline.solve(cfg, loading, materials, free, numerics,
                            override_a=ov.get("a"), override_rho=ov.get("rho"))
    assert result.verdict == case.expected, case.name
print("jsonschema" in sys.modules)
"""


def test_accepted_configs_never_import_jsonschema():
    done = _run_python(_SOLVE_EVERY_CASE)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_accepted_configs_parse_and_solve_without_jsonschema_installed():
    blocker = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'jsonschema':\n"
        "            raise ImportError('jsonschema is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
    )
    done = _run_python(blocker + _SOLVE_EVERY_CASE)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_parse_config_rejects_slit_count_mismatch():
    doc = figures.load_case("fig1b")
    doc["n"] = 3
    with pytest.raises(CliError):
        parse_config(doc)


def test_numerical_failure_exits_three(tmp_path, capsys):
    # single inclusion with equal real stresses degenerates to a segment
    doc = figures.load_case("fig1a")
    doc["loading"] = {"tau1": 1.0, "tau2": 0.0, "tau1_inf": 1.0, "tau2_inf": 0.0}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--config", str(path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_reproduce_figures_writes_everything(tmp_path):
    code = cli.main(["reproduce-figures", "--outdir", str(tmp_path / "figs")])
    assert code == 0
    outdir = tmp_path / "figs"
    for case in figures.FIGURE_CASES:
        assert (outdir / f"{case.name}.svg").exists()
        polylines = read_contours_csv(outdir / f"{case.name}.csv")
        assert len(polylines) == case.n_contours
    summary = json.loads((outdir / "summary.json").read_text())
    verdicts = {row["case"]: row["verdict"] for row in summary}
    assert verdicts["fig2c"] == "VALID"
    assert verdicts["fig2d"] == "INVALID-UNBOUNDED"
    assert verdicts["fig4d"] == "INVALID-GEOMETRY"


@pytest.mark.parametrize("flag", ["--out", "--svg", "--diag"])
def test_unwritable_solve_output_exits_two(tmp_path, fig1b_path, capsys, flag):
    target = tmp_path / "missing" / "dir" / "output"
    assert cli.main(["solve", "--config", str(fig1b_path), flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and str(target) in err


def test_unwritable_outdir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["reproduce-figures", "--outdir", str(blocker / "figs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and str(blocker) in err
