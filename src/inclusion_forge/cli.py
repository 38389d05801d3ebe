"""Command-line interface: JSON config in, CSV/SVG/JSON diagnostics out.

Subcommands
-----------
solve              run one configuration, write contours/diagnostics/plot
validate           report every violated invariant of a configuration
reproduce-figures  regenerate the bundled sample configurations

Exit codes: 0 valid result, 1 invalid verdict (or unexpected
classification for reproduce-figures), 2 unreadable/invalid input or
unwritable output, 3 internal numerical failure.  The environment variable
``INCLUSION_FORGE_TOL`` overrides the boundedness tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from . import figures, pipeline
from .mapper import n1_circular_profile
from .model import (
    AT_INFINITY,
    ConfigurationError,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
    SolverError,
    validate as validate_model,
)

_COMPLEX_SCHEMA = {
    "type": "object",
    "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
    "required": ["re"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "slits": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "zeta_inf": {"oneOf": [{"const": "infinity"}, _COMPLEX_SCHEMA]},
        "loading": {
            "type": "object",
            "properties": {
                "tau1": {"type": "number"},
                "tau2": {"type": "number"},
                "tau1_inf": {"type": "number"},
                "tau2_inf": {"type": "number"},
                "mu": {"type": "number"},
            },
            "required": ["tau1", "tau2", "tau1_inf", "tau2_inf"],
            "additionalProperties": False,
        },
        "kappa": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "free": {
            "type": "object",
            "properties": {
                "a0": {"type": "number"},
                "rho0": {"type": "number"},
                "c_m1": _COMPLEX_SCHEMA,
                "gamma": _COMPLEX_SCHEMA,
                "beta0": {"type": "number"},
                "antisymmetric": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "numerics": {
            "type": "object",
            "properties": {
                "N": {"type": "integer"},
                "M": {"type": "integer"},
                "P": {"type": "integer"},
                "tol_solve": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "overrides": {
            "type": "object",
            "properties": {
                "a": {"type": "array", "items": {"type": "number"}},
                "rho": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
    },
    "required": ["n", "slits", "zeta_inf", "loading", "kappa"],
    "additionalProperties": False,
}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


# Draft 2020-12's type predicates; "integer" admits integer-valued floats like 200.0
_TYPES = {
    "number": _is_number,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}

# check(instance, keyword value, schema) for each keyword CONFIG_SCHEMA uses;
# as in JSON Schema, a keyword that constrains one type passes any other type
_KEYWORDS = {
    "type": lambda v, t, s: _TYPES[t](v),
    "const": lambda v, c, s: v == c and isinstance(v, bool) == isinstance(c, bool),
    "oneOf": lambda v, subs, s: sum(_conforms(v, sub) for sub in subs) == 1,
    "minimum": lambda v, m, s: not (_is_number(v) and v < m),
    "minItems": lambda v, k, s: not isinstance(v, list) or len(v) >= k,
    "maxItems": lambda v, k, s: not isinstance(v, list) or len(v) <= k,
    "items": lambda v, sub, s: not isinstance(v, list) or all(_conforms(x, sub) for x in v),
    "required": lambda v, keys, s: not isinstance(v, dict) or all(k in v for k in keys),
    "properties": lambda v, props, s: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k, sub in props.items() if k in v),
    "additionalProperties": lambda v, sub, s: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k in v.keys() - s.get("properties", {})),
}


def _conforms(doc, schema) -> bool:
    """Whether doc satisfies a Draft 2020-12 schema built of the keywords above.

    Any other keyword raises, so the schema cannot outgrow this check.
    """
    if isinstance(schema, bool):
        return schema
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"config schema keyword {key!r} has no check")
        if not _KEYWORDS[key](doc, value, schema):
            return False
    return True


class CliError(Exception):
    """Input- or output-level failure mapped to exit code 2."""


def _as_complex(obj) -> complex:
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def parse_config(doc: dict):
    """Schema-check a config document and build the model objects."""
    if not _conforms(doc, CONFIG_SCHEMA):
        import jsonschema  # only a rejected document needs its message worded

        validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
        error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
        raise CliError(f"config schema violation: {error.message}")
    if doc["n"] != len(doc["slits"]):
        raise CliError(f"n = {doc['n']} but {len(doc['slits'])} slits given")
    zeta = doc["zeta_inf"]
    zeta_inf = AT_INFINITY if zeta == "infinity" else _as_complex(zeta)
    try:
        cfg = SlitConfiguration(doc["slits"], zeta_inf)
        # absent optional keys take the defaults of the model types
        loading = Loading(**doc["loading"])
        materials = MaterialSet(doc["kappa"])
        free = FreeParameters(**{
            k: _as_complex(v) if k in ("c_m1", "gamma") else v
            for k, v in doc.get("free", {}).items()
        })
        # the schema's "integer" also admits integer-valued floats like 200.0
        nu = {
            k: int(v) if k in ("N", "M", "P") else v
            for k, v in doc.get("numerics", {}).items()
        }
        tol = os.environ.get("INCLUSION_FORGE_TOL", nu.get("tol_solve"))
        if tol is not None:
            try:
                nu["tol_solve"] = float(tol)
            except ValueError as exc:
                raise CliError(f"INCLUSION_FORGE_TOL is not a number: {exc}") from exc
        numerics = NumericsConfig(**nu)
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc
    overrides = doc.get("overrides", {})
    return cfg, loading, materials, free, numerics, overrides


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


# -- emitters -------------------------------------------------------------------


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}") from exc


def write_contours_csv(result: pipeline.SolveResult, path: str | Path) -> None:
    """One row per vertex; 17 significant digits round-trip IEEE doubles exactly."""
    parts = ["slit_index,bank,xi,re_z,im_z\n"]
    for p in result.profiles:
        # one % pass per contour over Python floats; %+d prints the bank column's
        # integral floats as ints
        row = f"{p.slit_index},%+d,%.17g,%.17g,%.17g\n"
        cols = np.column_stack((p.bank, p.xi, p.points.real, p.points.imag))
        parts.append(row * len(cols) % tuple(cols.ravel().tolist()))
    _write(path, "".join(parts))


def write_diagnostics_json(result: pipeline.SolveResult, path: str | Path) -> None:
    doc = {
        "diagnostics": result.diagnostics.to_dict(),
        "constants": {
            "a": result.constants.a.tolist(),
            "rho": result.constants.rho.tolist(),
            "rho_prime": result.constants.rho_prime.tolist(),
        },
    }
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


_SVG_WIDTH = 480.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # escapes for element text


def render_svg(contours: list[np.ndarray], labels: list[str] | None = None) -> str:
    """Deterministic equal-aspect SVG of closed contours (y axis up).

    The first ``len(labels)`` contours get a legend entry each.
    """
    labels = labels or []
    all_pts = np.concatenate(contours)
    x0, x1 = float(all_pts.real.min()), float(all_pts.real.max())
    y0, y1 = float(all_pts.imag.min()), float(all_pts.imag.max())
    # a span below the spacing of floats near the frame would vanish when
    # padded, so the smallest span scales with the largest coordinate
    span = max(x1 - x0, y1 - y0, 1e-12 * max(1.0, abs(x0), abs(x1), abs(y0), abs(y1)))
    pad = 0.05 * span
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    dx, dy = x1 - x0, y1 - y0
    height = _SVG_WIDTH * dy / dx

    # page coordinates of data values, for Python floats and arrays alike
    def sx(v):
        return _SVG_WIDTH * (v - x0) / dx

    def sy(v):
        return height * (y1 - v) / dy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH:g}" '
        f'height="{height:.3f}" viewBox="0 0 {_SVG_WIDTH:g} {height:.3f}">',
        f'<rect width="{_SVG_WIDTH:g}" height="{height:.3f}" fill="white"/>',
    ]
    if x0 < 0 < x1:
        parts.append(
            f'<line x1="{sx(0):.3f}" y1="0" x2="{sx(0):.3f}" y2="{height:.3f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    if y0 < 0 < y1:
        parts.append(
            f'<line x1="0" y1="{sy(0):.3f}" x2="{_SVG_WIDTH:g}" y2="{sy(0):.3f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for i, z in enumerate(contours):
        color = _PALETTE[i % len(_PALETTE)]
        z = np.asarray(z)
        # the IEEE operations of the scalar form; Python floats do not warn
        # on inf - inf or on overflow, so neither may numpy
        with np.errstate(invalid="ignore", over="ignore"):
            xy = np.column_stack((sx(z.real), sy(z.imag)))
        # one % pass per contour; %.3f prints what format(v, ".3f") does
        coords = " ".join(["%.3f,%.3f"] * len(z)) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if i < len(labels):
            parts.append(
                f'<text x="{8 + 90 * i}" y="16" font-size="12" '
                f'fill="{color}">{labels[i].translate(_XML_TEXT)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(
    result: pipeline.SolveResult,
    path: str | Path,
    extra_contours: list[np.ndarray] | None = None,
    labels: list[str] | None = None,
) -> None:
    contours = [p.points for p in result.profiles] + list(extra_contours or [])
    _write(path, render_svg(contours, labels))


# -- subcommands ----------------------------------------------------------------


def _apply_flag_overrides(args, numerics: NumericsConfig) -> NumericsConfig:
    changes = {} if args.points is None else {"P": args.points}
    if args.nodes is not None:
        # --nodes moves the truncation order along with the node count
        changes.update(N=args.nodes, M=args.nodes)
    try:
        return dataclasses.replace(numerics, **changes)
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc


def _parse_vector(text: str | None):
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad override vector {text!r}: {exc}") from exc


def cmd_solve(args) -> int:
    doc = load_config(args.config)
    cfg, loading, materials, free, numerics, overrides = parse_config(doc)
    numerics = _apply_flag_overrides(args, numerics)
    override_a = _parse_vector(args.override_a) or overrides.get("a")
    override_rho = _parse_vector(args.override_rho) or overrides.get("rho")
    try:
        result = pipeline.solve(
            cfg, loading, materials, free, numerics,
            override_a=override_a, override_rho=override_rho,
        )
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        write_contours_csv(result, args.out)
    if args.diag:
        write_diagnostics_json(result, args.diag)
    if args.svg:
        write_svg(result, args.svg)
    print(f"verdict: {result.verdict}")
    for p in result.profiles:
        print(
            f"  contour {p.slit_index}: diameter {p.diameter:.6g}, "
            f"area {p.signed_area:.6g}, closure {p.closure_error:.2e}"
        )
    return 0 if result.valid else 1


def cmd_validate(args) -> int:
    doc = load_config(args.config)
    cfg, loading, materials, _free, _numerics, _overrides = parse_config(doc)
    report = validate_model(cfg, loading, materials)
    for v in report.violations:
        print(f"violation: {v}")
    for w in report.warnings:
        print(f"warning: {w}")
    if report.ok:
        print("configuration is runnable")
        return 0
    return 2


def cmd_reproduce_figures(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}") from exc
    rows = []
    failures = 0
    for case in figures.FIGURE_CASES:
        doc = figures.load_case(case.name)
        cfg, loading, materials, free, numerics, overrides = parse_config(doc)
        try:
            result = pipeline.solve(
                cfg, loading, materials, free, numerics,
                override_a=overrides.get("a"), override_rho=overrides.get("rho"),
            )
        except (ConfigurationError, SolverError) as exc:
            rows.append((case.name, "ERROR", case.expected, str(exc)))
            failures += 1
            continue
        extra, labels = None, None
        if case.overlay_circular:
            phi = np.linspace(0.0, 2.0 * np.pi, numerics.P * 2 + 1)
            extra = [n1_circular_profile(phi, loading, materials, free)]
            labels = ["slit map", "circular map"]
        write_svg(result, outdir / f"{case.name}.svg", extra, labels)
        write_contours_csv(result, outdir / f"{case.name}.csv")
        ok = result.verdict == case.expected
        failures += 0 if ok else 1
        rows.append((case.name, result.verdict, case.expected, "" if ok else "MISMATCH"))
    name_w = max(len(r[0]) for r in rows)
    verdict_w = max(len(r[1]) for r in rows)
    lines = [
        f"{r[0]:<{name_w}}  {r[1]:<{verdict_w}}  expected {r[2]}  {r[3]}".rstrip()
        for r in rows
    ]
    summary = "\n".join(lines) + "\n"
    print(summary, end="")
    _write(outdir / "summary.txt", summary)
    _write(
        outdir / "summary.json",
        json.dumps(
            [
                {"case": r[0], "verdict": r[1], "expected": r[2], "note": r[3]}
                for r in rows
            ],
            indent=2,
        )
        + "\n"
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inclusion-forge",
        description="Uniformly stressed inclusion profiles from collinear slit maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one configuration")
    ps.add_argument("--config", required=True, help="JSON case configuration")
    ps.add_argument("--out", help="contours CSV output path")
    ps.add_argument("--svg", help="contour plot output path")
    ps.add_argument("--diag", help="diagnostics JSON output path")
    ps.add_argument("--nodes", type=int, help="override quadrature node count N")
    ps.add_argument("--points", type=int, help="override contour samples per bank P")
    ps.add_argument("--override-a", help="comma-separated replacement a vector")
    ps.add_argument("--override-rho", help="comma-separated replacement rho vector")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("validate", help="check a configuration without solving")
    pv.add_argument("--config", required=True)
    pv.set_defaults(func=cmd_validate)

    pf = sub.add_parser(
        "reproduce-figures", help="regenerate the bundled sample configurations"
    )
    pf.add_argument("--outdir", default="figures-out")
    pf.set_defaults(func=cmd_reproduce_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
