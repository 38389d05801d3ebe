"""Reference outputs at N = M = 128 and the per-op checks against them.

A solve op is correct when its verdict equals the expected one (the
registry's for a bundled case, the reference solve's for a generated layout)
and every contour vertex lies within ``TOL`` of the reference vertex at the
same parameter, relative to that contour's diameter.  An interior op is
correct when all its values are finite and, on ``REF_TARGETS`` targets of its
batch (the first half of them and the farthest half, where precision is
lowest), omega and F lie within ``TOL`` of the reference, relative to the
largest reference magnitude.

``TOL`` separates wrong from imprecise.  Any wrong formula, sign or slit order
moves outputs by O(1); the precision actually reached is reported as
``contour_digits``.  The tolerance must stay above the reference's own error:
in the far field of an n = 16 map, q(zeta) ~ zeta^16 multiplies an
alternating Cauchy sum that cancels to O(zeta^-17), so interior values there
carry only about five digits at N = 128 and N = 256 alike.  That floor is
rounding in the cancellation, not truncation, so no reference built the same
way resolves it.  Digits of an interior op are therefore counted only on the
targets where the N = 128 and N = 256 references agree to ``RESOLVED``; the
``TOL`` check still covers every compared target.

References of the default seed are stored in ``data/``, keyed by a hash of
the op input, so the stored file also serves every seed for inputs that do
not depend on the seed.  Anything missing is solved here, outside the timed
phase, by the program under test, and cached under the checkout's
``.bench_out/`` keyed also by a hash of ``src/`` and of this file, so a cached
reference is only ever reused by the code that computed it.  Such a reference
only compares the program with itself; ``run.anchor`` adds the stored inputs
to every run for that reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REF_N = 128
REF_TARGETS = 500
TOL = 1e-3
RESOLVED = 1e-10  # N = 128 vs N = 256 agreement of a target counted in digits
HERE = Path(__file__).resolve()
STORE = HERE.parent / "data" / "reference_seed0.npz"
_EPS = float(np.finfo(float).eps)


def compared(targets: np.ndarray) -> np.ndarray:
    """Indices of the interior targets checked against the reference."""
    half = REF_TARGETS // 2
    farthest = np.argsort(np.abs(targets))[-half:]
    return np.unique(np.concatenate([np.arange(half), farthest]))


def input_key(doc: dict, targets: np.ndarray | None) -> str:
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    if targets is not None:
        h.update(np.ascontiguousarray(targets[compared(targets)]).tobytes())
    return h.hexdigest()[:20]


def load_store(path: Path = STORE) -> dict[str, dict]:
    if not path.exists():
        return {}
    out: dict[str, dict] = {}
    with np.load(path, allow_pickle=False) as data:
        for name in data.files:
            key, field = name.split(".", 1)
            out.setdefault(key, {})[field] = data[name]
    return {key: _unpack(fields) for key, fields in out.items()}


def _unpack(fields: dict) -> dict:
    if "verdict" in fields:
        n = len([f for f in fields if f.startswith("c")])
        return {
            "verdict": str(fields["verdict"]),
            "contours": [fields[f"c{i}"] for i in range(n)],
        }
    return {"omega": fields["omega"], "F": fields["F"], "resolved": fields["resolved"]}


def save_store(refs: dict[str, dict], path: Path = STORE) -> None:
    arrays = {}
    for key, ref in refs.items():
        if "verdict" in ref:
            arrays[f"{key}.verdict"] = np.array(ref["verdict"])
            for i, c in enumerate(ref["contours"]):
                arrays[f"{key}.c{i}"] = c
        else:
            arrays[f"{key}.omega"] = ref["omega"]
            arrays[f"{key}.F"] = ref["F"]
            arrays[f"{key}.resolved"] = ref["resolved"]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def _reference_solve(pkg, doc: dict, N: int, P: int | None = None):
    cfg, loading, materials, free, numerics, overrides = pkg.cli.parse_config(doc)
    numerics = dataclasses.replace(numerics, N=N, M=N, P=P or numerics.P)
    return pkg.pipeline.solve(
        cfg, loading, materials, free, numerics,
        override_a=overrides.get("a"), override_rho=overrides.get("rho"),
    )


def _relative(vals: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-target deviation, relative to the largest reference magnitude."""
    return np.abs(vals - ref) / float(np.abs(ref).max())


def compute(pkg, inputs, key: str) -> dict:
    """Reference of one op input, solved at N = M = 128.

    Interior references also mark the targets on which the N = 256 solve
    agrees to ``RESOLVED``.
    """
    doc = inputs.docs[key]
    if key in inputs.targets:
        z = inputs.targets[key][compared(inputs.targets[key])]
        # the map does not depend on P; the smallest admissible P keeps it cheap
        fine, finer = (_reference_solve(pkg, doc, N, P=16).slit_map for N in (REF_N, 2 * REF_N))
        omega, F = fine.omega_interior(z), fine.F_interior(z)
        spread = np.maximum(_relative(finer.omega_interior(z), omega),
                            _relative(finer.F_interior(z), F))
        return {"omega": omega, "F": F, "resolved": spread <= RESOLVED}
    result = _reference_solve(pkg, doc, REF_N)
    return {"verdict": result.verdict, "contours": [p.points for p in result.profiles]}


def code_key() -> str:
    """Hash of the program sources and of this file, for the reference cache."""
    h = hashlib.sha256(HERE.read_bytes())
    src = HERE.parent.parent / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:20]


def references(pkg, inputs, cache_dir: Path) -> dict[str, dict]:
    """Reference of every op input: stored, cached for this code, or solved now."""
    store = load_store()
    cache_dir = cache_dir / code_key()
    refs = {}
    for key, doc in inputs.docs.items():
        skey = input_key(doc, inputs.targets.get(key))
        cached = cache_dir / f"{skey}.npz"
        if skey not in store:
            store.update(load_store(cached))
        if skey not in store:
            store[skey] = compute(pkg, inputs, key)
            save_store({skey: store[skey]}, cached)
        refs[key] = store[skey]
    return refs


# -- comparison -------------------------------------------------------------------


def _diameter(z: np.ndarray) -> float:
    return float(np.hypot(np.ptp(z.real), np.ptp(z.imag)))


def solve_deviation(contours: list[np.ndarray], ref: dict) -> float:
    """Largest vertex deviation over the contours, relative to each diameter."""
    if len(contours) != len(ref["contours"]):
        return math.inf
    dev = 0.0
    for c, r in zip(contours, ref["contours"]):
        if c.shape != r.shape or not np.all(np.isfinite(c)):
            return math.inf
        dev = max(dev, float(np.abs(c - r).max()) / max(_diameter(r), 1e-300))
    return dev


def interior_deviation(out, ref: dict) -> tuple[float, float | None]:
    """Largest deviation of omega and F, relative to the largest reference value,
    over all compared targets and over the resolved ones (None if there are none)."""
    if not out.finite:
        return math.inf, math.inf
    if out.omega.shape != ref["omega"].shape or out.F.shape != ref["F"].shape:
        return math.inf, math.inf
    dev = np.maximum(_relative(out.omega, ref["omega"]), _relative(out.F, ref["F"]))
    resolved = dev[ref["resolved"]]
    return float(dev.max()), (float(resolved.max()) if resolved.size else None)


def digits(dev: float) -> float:
    """Correct decimal digits of a relative deviation, capped at double precision."""
    if not math.isfinite(dev):
        return 0.0
    return -math.log10(max(dev, _EPS))
