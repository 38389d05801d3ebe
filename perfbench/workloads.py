"""The four benchmark workloads: seeded inputs, set-up and one op each.

Every workload is driven through the package's public API only:
``cli.parse_config`` -> ``pipeline.solve`` -> the ``cli`` emitters for the
solve workloads, ``SlitMap.omega_interior`` / ``SlitMap.F_interior`` for the
interior one.  Functions are looked up on their modules at call time, so the
tracer's wrappers see every call.

Why these four: the cost of one op sits in a different layer on each.

* ``corpus``: the 16 bundled cases done the way ``reproduce-figures`` does
  them.  n <= 3 and P = 200, so per-call overheads (schema check, emitters,
  small dense predicates) dominate.
* ``many_slits``: seeded n = 16 layouts, which scale the Cauchy sums of the
  mapper and quadrature and the solvability systems with n.
* ``fine_contours``: the eight n = 3 cases at P = 800, where the dense O(P^2)
  geometry predicates take nearly the whole op.
* ``interior_field``: batches of off-slit targets through the solved maps, the
  library's second public use; no solve and no geometry in the op.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("corpus", "many_slits", "fine_contours", "interior_field")
DEFAULT_SEED = 0

MANY_SLITS_N = 16
MANY_SLITS_LAYOUTS = 4      # distinct layouts per run, cycled
FINE_P = 800
FINE_CASES = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "fig4d")
BATCH = 10_000              # interior targets per op
NEAR_SHARE = 0.2            # share of interior targets hugging a slit
NEAR_MAX = 1e-3             # ... within this many slit lengths of it

# op_tail_s: the highest percentile with at least 10 of a run's ops beyond it
# at the listed run length, fixed per workload so runs stay comparable.  The
# n = 16 and P = 800 workloads complete ~20 ops a run, so only the median has.
TAIL_PERCENTILE = {"corpus": 95.0, "many_slits": 50.0, "fine_contours": 50.0, "interior_field": 90.0}


@dataclass
class Inputs:
    """Everything one run feeds the program, keyed by op input."""

    workload: str
    docs: dict[str, dict]                      # key -> config document
    expected: dict[str, str] = field(default_factory=dict)  # registry verdicts
    overlay: frozenset[str] = frozenset()      # keys drawn with the circular map
    targets: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def keys(self) -> list[str]:
        return list(self.docs)

    def digest(self) -> str:
        """sha256 of the generated documents and target batches."""
        h = hashlib.sha256()
        h.update(json.dumps(self.docs, sort_keys=True).encode())
        for key in sorted(self.targets):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.targets[key]).tobytes())
        return h.hexdigest()


# -- input generation (benchmark side, excluded from set-up time) --------------


def many_slits_doc(rng: np.random.Generator) -> dict:
    """MANY_SLITS_N soft slits on [-1, 1]: slit and gap lengths jittered by +-40%.

    The pole preimage sits above the slits at Im in [2, 6]; the loading is the
    one of the fig1/fig4 families, under which most layouts come out VALID.
    """
    parts = rng.uniform(0.6, 1.4, 2 * MANY_SLITS_N - 1)
    ends = -1.0 + np.concatenate(([0.0], np.cumsum(parts * (2.0 / parts.sum()))))
    ends[-1] = 1.0
    return {
        "n": MANY_SLITS_N,
        "slits": [[float(ends[2 * j]), float(ends[2 * j + 1])] for j in range(MANY_SLITS_N)],
        "zeta_inf": {"re": float(rng.uniform(-1.0, 1.0)), "im": float(rng.uniform(2.0, 6.0))},
        "loading": {"tau1": 1.0, "tau2": 1.0, "tau1_inf": -1.0, "tau2_inf": 1.0, "mu": 1.0},
        "kappa": [float(k) for k in rng.uniform(0.1, 0.5, MANY_SLITS_N)],
        "numerics": {"N": 64, "M": 64, "P": 200},
    }


def interior_targets(rng: np.random.Generator, doc: dict) -> np.ndarray:
    """BATCH off-slit targets around the slits, a share of them hugging a slit.

    Near targets sit within NEAR_MAX slit lengths of a slit; every target
    keeps a tenth of the slit span away from a finite pole preimage.
    """
    slits = np.asarray(doc["slits"], dtype=float)
    lo, hi = float(slits.min()), float(slits.max())
    span = hi - lo
    zeta = doc["zeta_inf"]
    pole = None if zeta == "infinity" else complex(zeta["re"], zeta.get("im", 0.0))
    out = np.empty(0, dtype=complex)
    while len(out) < BATCH:
        n_near = int(NEAR_SHARE * BATCH)
        j = rng.integers(len(slits), size=n_near)
        a, length = slits[j, 0], slits[j, 1] - slits[j, 0]
        near = a + length * rng.uniform(0.0, 1.0, n_near) + 1j * (
            rng.choice([-1.0, 1.0], n_near) * length * rng.uniform(1e-2, 1.0, n_near) * NEAR_MAX
        )
        n_far = BATCH - n_near
        far = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, n_far) + 1j * (
            rng.uniform(-0.75 * span, 0.75 * span, n_far)
        )
        z = np.concatenate([out, near, far])
        keep = z.imag != 0.0
        if pole is not None:
            keep &= np.abs(z - pole) >= 0.1 * span
        out = z[keep]
    out = out[:BATCH]
    return out[rng.permutation(BATCH)]


def generate(workload: str, seed: int, bundled: Bundled) -> Inputs:
    """Seeded inputs of one workload."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    if workload == "corpus":
        return Inputs(workload, dict(bundled.docs), dict(bundled.expected), bundled.overlay)
    if workload == "many_slits":
        docs = {f"layout{i}": many_slits_doc(rng) for i in range(MANY_SLITS_LAYOUTS)}
        return Inputs(workload, docs)
    if workload == "fine_contours":
        docs = {}
        for name in FINE_CASES:
            doc = copy.deepcopy(bundled.docs[name])
            doc.setdefault("numerics", {})["P"] = FINE_P
            docs[name] = doc
        return Inputs(workload, docs, {k: bundled.expected[k] for k in docs})
    if workload == "interior_field":
        docs = {
            name: doc for name, doc in bundled.docs.items()
            if doc["n"] >= 2 and "overrides" not in doc
        }
        # the first many_slits layout of the default seed, so that only the
        # targets change with the seed
        docs["layout0"] = many_slits_doc(np.random.default_rng([DEFAULT_SEED, NAMES.index("many_slits")]))
        targets = {key: interior_targets(rng, doc) for key, doc in docs.items()}
        return Inputs(workload, docs, targets=targets)
    raise ValueError(f"unknown workload {workload!r}")


def cycle_order(inputs: Inputs, rng: np.random.Generator) -> list[str]:
    """One pass over every op input, in a seeded order."""
    keys = inputs.keys
    return [keys[i] for i in rng.permutation(len(keys))]


# -- set-up and ops (the program's side) ----------------------------------------


@dataclass(frozen=True)
class Bundled:
    """The bundled case documents and what the registry says of them."""

    docs: dict[str, dict]
    expected: dict[str, str]    # registry verdicts
    overlay: frozenset[str]     # cases drawn with the circular-map overlay


def load_bundled(pkg) -> Bundled:
    cases = pkg.figures.FIGURE_CASES
    return Bundled(
        {case.name: pkg.figures.load_case(case.name) for case in cases},
        {case.name: case.expected for case in cases},
        frozenset(case.name for case in cases if case.overlay_circular),
    )


@dataclass
class SolveOutput:
    verdict: str
    contours: list[np.ndarray]
    files: tuple[Path, Path]


@dataclass
class InteriorOutput:
    omega: np.ndarray
    F: np.ndarray
    finite: bool = True

    def take(self, index: np.ndarray) -> "InteriorOutput":
        """The values at ``index``, and whether all values were finite."""
        finite = bool(np.isfinite(self.omega).all() and np.isfinite(self.F).all())
        return InteriorOutput(self.omega[index], self.F[index], finite)


class Runner:
    """Holds what set-up built and runs one op by input key."""

    def __init__(self, pkg, inputs: Inputs, outdir: Path) -> None:
        self.pkg = pkg
        self.inputs = inputs
        self.outdir = outdir
        self.maps: dict = {}

    def prepare(self) -> None:
        """Set-up beyond imports: the solves the interior workload evaluates."""
        if self.inputs.workload != "interior_field":
            return
        cli, pipeline = self.pkg.cli, self.pkg.pipeline
        for key, doc in self.inputs.docs.items():
            cfg, loading, materials, free, numerics, _ = cli.parse_config(doc)
            self.maps[key] = pipeline.solve(cfg, loading, materials, free, numerics).slit_map

    def op(self, key: str):
        if self.inputs.workload == "interior_field":
            sm, z = self.maps[key], self.inputs.targets[key]
            return InteriorOutput(sm.omega_interior(z), sm.F_interior(z))
        return self._solve_op(key)

    def _solve_op(self, key: str) -> SolveOutput:
        cli, pipeline = self.pkg.cli, self.pkg.pipeline
        cfg, loading, materials, free, numerics, overrides = cli.parse_config(
            self.inputs.docs[key]
        )
        result = pipeline.solve(
            cfg, loading, materials, free, numerics,
            override_a=overrides.get("a"), override_rho=overrides.get("rho"),
        )
        extra, labels = None, None
        if key in self.inputs.overlay:
            phi = np.linspace(0.0, 2.0 * np.pi, numerics.P * 2 + 1)
            extra = [self.pkg.mapper.n1_circular_profile(phi, loading, materials, free)]
            labels = ["slit map", "circular map"]
        svg, csv = self.outdir / f"{key}.svg", self.outdir / f"{key}.csv"
        cli.write_svg(result, svg, extra, labels)
        cli.write_contours_csv(result, csv)
        return SolveOutput(result.verdict, [p.points for p in result.profiles], (csv, svg))
