"""Scaling sweep and stage split of one solve (a report, not a gate).

    python3 perfbench/sweep.py [--out perfbench/results/sweep.json]

Sweeps the slit count n = 2..24 at P = 200 over evenly spaced slits (slit
and gap lengths equal on [-1, 1]) and the samples per bank P = 200..1600 on
fig3a.  For every point it reports the median untraced parse-and-solve time, the
median per-layer self times of a traced solve, the stage split below,
``solvability.cond`` (the condition number of the solvability system) and the
speed factor of the calibration kernel in ``run.py``: times are not
corrected, and a factor near 1.45 means they were taken at the CPU's slow
speed.

Stages are read off the spans by parent: contour tracing is
``geometry.build_profiles`` with everything under it, the Schwarz report is
the mapper calls made directly by ``pipeline.solve``, and the predicates are
``geometry.self_intersects`` plus ``geometry.disjoint``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import run
from tracer import Tracer

N_SWEEP = (2, 3, 4, 6, 8, 12, 16, 20, 24)
P_SWEEP = (200, 400, 800, 1600)
REPEATS = 5          # solves per point, untraced and traced
SCHEMA_REPEATS = 50  # parse_config calls timed for the schema-check comparison
_SCHWARZ = ("mapper.F_boundary", "mapper.omega_boundary", "mapper.g1")
_SOLVABILITY = (
    "solvability.period_matrix", "solvability.solve",
    "solvability.cross_check", "solvability.residuals",
)


def evenly_spaced(n: int) -> dict:
    """n equal slits with equal gaps on [-1, 1], soft inclusions."""
    ends = np.linspace(-1.0, 1.0, 2 * n)
    if n == 2:
        zeta = {"re": 0.0, "im": 0.0}  # two slits need a real pole in the gap
    else:
        zeta = {"re": 0.0, "im": 4.0}
    return {
        "n": n,
        "slits": [[float(ends[2 * j]), float(ends[2 * j + 1])] for j in range(n)],
        "zeta_inf": zeta,
        "loading": {"tau1": 1.0, "tau2": 1.0, "tau1_inf": -1.0, "tau2_inf": 1.0, "mu": 1.0},
        "kappa": [0.3] * n,
        "numerics": {"N": 64, "M": 64, "P": 200},
    }


def stage_split(tracer: Tracer) -> dict[str, float]:
    """Inclusive seconds per pipeline stage, from span durations by parent."""
    names = tracer.span_names
    out: dict[str, float] = defaultdict(float)
    for gid, t0, t1, parent, _op in tracer.spans:
        name = names[gid]
        parent_name = names[tracer.spans[parent][0]] if parent >= 0 else None
        dur = t1 - t0
        if name == "pipeline.solve":
            out["solve_total"] += dur
        elif parent_name != "pipeline.solve":
            continue
        elif name == "model.validate":
            out["validate"] += dur
        elif name in _SOLVABILITY:
            out["solvability"] += dur
        elif name == "mapper.SlitMap.build":
            out["slitmap_build"] += dur
        elif name == "geometry.build_profiles":
            out["contour_tracing"] += dur
        elif name in ("geometry.self_intersects", "geometry.disjoint"):
            out["geometry_predicates"] += dur
        elif name in _SCHWARZ:
            out["schwarz_report"] += dur
    staged = sum(v for k, v in out.items() if k != "solve_total")
    out["other"] = out["solve_total"] - staged
    return dict(out)


def measure(pkg, doc: dict) -> dict:
    """Median untraced solve time, and medians of the traced split and self times."""
    cli, pipeline = pkg.cli, pkg.pipeline

    def solve():
        cfg, loading, materials, free, numerics, _ = cli.parse_config(doc)
        return pipeline.solve(cfg, loading, materials, free, numerics)

    result = solve()
    warm_until = time.perf_counter() + 1.0  # an idle CPU needs a moment to come up to speed
    while time.perf_counter() < warm_until:
        solve()
    cal = run.calibrate()
    plain = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        solve()
        plain.append(time.perf_counter() - t0)
    tracer = Tracer()
    splits, selfs = [], []
    tracer.install()
    try:
        for _ in range(REPEATS):
            tracer.reset()
            solve()
            splits.append(stage_split(tracer))
            selfs.append(dict(tracer.self_s))
        period = tracer.kept["solvability.period_matrix"][-1]
    finally:
        tracer.uninstall()
    def med(rows: list[dict]) -> dict:
        keys = dict.fromkeys(k for r in rows for k in r)
        return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}

    return {
        "verdict": result.verdict,
        # calibration kernel time over its full-speed time, around this point
        "speed_factor": 0.5 * (cal + run.calibrate()) / run.CAL_REF_S,
        "solve_s": statistics.median(plain),
        "stages_s": med(splits),
        "self_s": med(selfs),
        "solvability.cond": float(np.linalg.cond(pkg.solvability.system_matrix(period))),
        "solvability.residual_rel": max(
            result.diagnostics.boundedness["a_relative"],
            result.diagnostics.boundedness["rho_relative"],
        ),
    }


def schema_check_s(pkg, doc: dict) -> dict[str, float]:
    """parse_config as shipped vs the same schema check with a compiled validator."""
    import jsonschema

    def median_time(fn) -> float:
        times = []
        for _ in range(SCHEMA_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    validator = jsonschema.Draft202012Validator(pkg.cli.CONFIG_SCHEMA)
    return {
        "parse_config_s": median_time(lambda: pkg.cli.parse_config(doc)),
        "compiled_validator_s": median_time(lambda: validator.validate(doc)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "results" / "sweep.json")
    args = parser.parse_args(argv)
    pkg = run.import_package()
    bundled = run.workloads.load_bundled(pkg).docs
    docs = [evenly_spaced(n) for n in N_SWEEP] + [bundled["fig3a"]]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    report = {"record": run.run_record(seed=None, digest=digest), "repeats": REPEATS}
    report["schema_check"] = schema_check_s(pkg, bundled["fig3a"])
    report["n_sweep"] = {}
    for n in N_SWEEP:
        report["n_sweep"][n] = row = measure(pkg, evenly_spaced(n))
        print(f"n={n:<3} speed {row['speed_factor']:.2f}  solve {row['solve_s']:.4f} s  cond {row['solvability.cond']:.3g}  "
              + "  ".join(f"{k} {v:.4f}" for k, v in row["stages_s"].items()), flush=True)
    report["p_sweep"] = {}
    for P in P_SWEEP:
        doc = copy.deepcopy(bundled["fig3a"])
        doc["numerics"]["P"] = P
        report["p_sweep"][P] = row = measure(pkg, doc)
        print(f"P={P:<5} speed {row['speed_factor']:.2f}  solve {row['solve_s']:.4f} s  "
              + "  ".join(f"{k} {v:.4f}" for k, v in row["stages_s"].items()), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
