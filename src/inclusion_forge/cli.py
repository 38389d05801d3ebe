"""Command-line interface: JSON config in, CSV/SVG/JSON diagnostics out.

Subcommands
-----------
solve              run one configuration, write contours/diagnostics/plot
validate           report every violated invariant of a configuration
reproduce-figures  regenerate the bundled sample configurations

Exit codes: 0 valid result, 1 invalid verdict (or unexpected
classification for reproduce-figures), 2 unreadable/invalid input or
unwritable output, 3 numerical failure (constants that are not finite, or
printed closed forms that disagree with the general path).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
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


def _items(v, sub, s):
    if isinstance(v, list):
        for i, x in enumerate(v):
            if (failure := _violation(x, sub)) is not None:
                failure.append(i)
                return failure
    return True


def _properties(v, props, s):
    if isinstance(v, dict):
        for k, sub in props.items():
            if k in v and (failure := _violation(v[k], sub)) is not None:
                failure.append(k)
                return failure
    return True


# check(instance, keyword value, schema) for each keyword CONFIG_SCHEMA uses: whether
# the instance passes the keyword itself (numpy scalars may make that a numpy bool),
# or its failure: the child's it fails in, or the keyword with the first missing or
# extra key it names, formed only then; as in JSON Schema, a keyword that constrains
# one type passes any other type.  additionalProperties takes true or false, as
# CONFIG_SCHEMA does: under a subschema there, every extra key would fail
_KEYWORDS = {
    "type": lambda v, t, s: _TYPES[t](v),
    "const": lambda v, c, s: v == c and isinstance(v, bool) == isinstance(c, bool),
    "oneOf": lambda v, subs, s: sum(_violation(v, sub) is None for sub in subs) == 1,
    "minimum": lambda v, m, s: not (_is_number(v) and v < m),
    "minItems": lambda v, k, s: not isinstance(v, list) or len(v) >= k,
    "maxItems": lambda v, k, s: not isinstance(v, list) or len(v) <= k,
    "items": _items,
    "required": lambda v, keys, s: not isinstance(v, dict) or all(k in v for k in keys)
    or [f"required {next(k for k in keys if k not in v)!r}"],
    "properties": _properties,
    "additionalProperties": lambda v, allowed, s: allowed is True or not isinstance(v, dict)
    or v.keys() <= s.get("properties", {}).keys()
    or [f"additionalProperties {next(k for k in v if k not in s.get('properties', {}))!r}"],
}


def _violation(doc, schema) -> list | None:
    """None where doc satisfies a Draft 2020-12 schema built of the keywords above.

    Otherwise the first check it fails, as [keyword, key, ..., key]: the
    keys lead from the failing value out to doc, innermost first, each
    appended while the failure unwinds, so a document that conforms builds
    no path.  Any other keyword raises, so the schema cannot outgrow this
    check.
    """
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"config schema keyword {key!r} has no check")
        result = _KEYWORDS[key](doc, value, schema)
        if isinstance(result, list):
            return result
        if not result:
            return [key]
    return None


class CliError(Exception):
    """Input- or output-level failure mapped to exit code 2."""


def _as_complex(obj) -> complex:
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def parse_config(doc: dict):
    """Schema-check a config document and build the model objects."""
    if (failure := _violation(doc, CONFIG_SCHEMA)) is not None:
        keyword, *keys = failure
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(keys))
        raise CliError(f"config schema violation at ${path}: {keyword}")
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
        # the schema's "integer" admits floats like 200.0, and its "number" integers
        nu = {
            k: int(v) if k in ("N", "M", "P") else float(v)
            for k, v in doc.get("numerics", {}).items()
        }
        numerics = NumericsConfig(**nu)
    except ConfigurationError as exc:
        raise CliError(str(exc)) from exc
    overrides = doc.get("overrides", {})
    return cfg, loading, materials, free, numerics, overrides


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
_FALLBACK = 1  # the byte that stands for a value format() writes


def _digit_words() -> np.ndarray:
    """Four ASCII bytes per c = 0..999, read as one uint32, at 1000 s + c.

    s = 0 blank, 1 c unpadded, 2 c zero-padded (both after a NUL), 3 "."
    and c zero-padded.
    """
    c = np.arange(1000)[:, None]
    digits = 48 + c // [100, 10, 1] % 10
    words = np.zeros((4, 1000, 4), dtype=np.uint8)
    words[1, :, 1:] = np.where(c >= [100, 10, 0], digits, 0)
    words[2:, :, 1:] = digits
    words[3, :, 0] = ord(".")
    return words.view(np.uint32).ravel()


_WORDS = _digit_words()


def _points_texts(xy: np.ndarray, counts: list[int]) -> list[str]:
    """Each polyline's ``points`` text: "x,y x,y ..." with format(v, ".3f") digits.

    ``xy`` holds the (x, y) page coordinates of every contour's points, the
    contours one after another, ``counts[i]`` points to contour i.  One pass
    writes all of them: q = rint(1000 v) gives the digits three at a time
    as words of ``_WORDS``, in rows of equal width padded with NUL bytes,
    each ending in its separator (a comma after x, a space after y, a
    newline after a contour's last point); the padding is then deleted and
    the text split at the newlines.  q is the correctly rounded 1000 v that
    %.3f prints unless a half-integer lies within one ulp of the rounded
    product, where the exact product may sit on its other side; those
    values, non-finite ones and |1000 v| >= 2^53 are formatted one at a
    time, so the text is format()'s for every double.
    """
    v = xy.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = v * 1000.0
        tie = np.abs(y - (np.floor(y) + 0.5)) <= np.abs(np.spacing(y))
        fast = (np.abs(y) < 2.0**53) & ~tie  # False at inf and nan
    q = np.abs(np.rint(np.where(fast, y, 0.0)).astype(np.int64))  # no nan or inf is cast
    whole, frac = np.divmod(q, 1000)
    chunks = -(-len(str(int(whole.max(initial=0)))) // 3)
    # a row: the integer digits, three to a word, then ".ddd", then the separator
    rows = np.zeros((len(v), chunks + 2), dtype=np.uint32)
    rest = whole
    for j in range(chunks):  # the lowest three digits first
        higher, c = np.divmod(rest, 1000) if j < chunks - 1 else (0, rest)
        # zero-padded below higher digits, blank above the number, which
        # prints at least its lowest digit
        style = 1000 * (higher > 0) + (1000 * (rest > 0) if j else 1000)
        rows[:, chunks - 1 - j] = _WORDS[style + c]
        rest = higher
    rows[:, -2] = _WORDS[3000 + frac]
    rows[:, -1] = ord(" ")
    rows[0::2, -1] = ord(",")
    ends = np.cumsum(counts) * 2 - 1
    rows[ends[np.diff(ends, prepend=-1) > 0], -1] = ord("\n")
    raw = rows.view(np.uint8)
    raw[np.signbit(v) & fast, 0] = ord("-")  # the NULs between it and the digits go
    slow = np.flatnonzero(~fast)
    rows[slow, :-1] = 0
    raw[slow, 0] = _FALLBACK
    text = raw.tobytes().translate(None, b"\0").decode("ascii")
    if len(slow):
        pieces = text.split(chr(_FALLBACK))
        texts = [format(f, ".3f") for f in v[slow].tolist()]
        text = "".join([s for pair in zip(pieces, texts) for s in pair] + pieces[-1:])
    lines = iter(text.split("\n"))
    return [next(lines) if c else "" for c in counts]


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
    # the IEEE operations of the scalar form; Python floats do not warn on
    # inf - inf or on overflow, so neither may numpy
    with np.errstate(invalid="ignore", over="ignore"):
        xy = np.column_stack((sx(all_pts.real), sy(all_pts.imag)))
    texts = _points_texts(xy, [len(z) for z in contours])
    for i, coords in enumerate(texts):
        color = _PALETTE[i % len(_PALETTE)]
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
    failed = result.diagnostics.failed_gates
    print(f"verdict: {result.verdict}" + (f" (failed: {', '.join(failed)})" if failed else ""))
    turns = result.diagnostics.geometry["orientation"]
    for p, turn in zip(result.profiles, turns):
        print(
            f"  contour {p.slit_index}: diameter {p.diameter:.6g}, "
            f"area {p.signed_area:.6g}, orientation {turn:+d}, "
            f"closure {p.closure_error:.2e}"
        )
    return 0 if result.valid else 1


def cmd_validate(args) -> int:
    doc = load_config(args.config)
    cfg, loading, materials, free, _numerics, overrides = parse_config(doc)
    report = validate_model(cfg, loading, materials)
    violations = report.violations + tuple(pipeline.request_violations(
        cfg, free, overrides.get("a"), overrides.get("rho")
    ))
    for v in violations:
        print(f"violation: {v}")
    for w in report.warnings:
        print(f"warning: {w}")
    if not violations:
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
