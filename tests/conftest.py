import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import inclusion_forge
from inclusion_forge import cli, figures, pipeline
from inclusion_forge.model import (
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
)


def load_figure_inputs(name: str, N: int | None = None):
    """Model objects for a bundled figure case, optionally at N = M = N."""
    doc = figures.load_case(name)
    cfg, loading, materials, free, numerics, overrides = cli.parse_config(doc)
    if N is not None:
        numerics = NumericsConfig(N=N, M=N, P=numerics.P, tol_solve=numerics.tol_solve)
    return cfg, loading, materials, free, numerics, overrides


def slit_layout_inputs(n: int, seed: int = 16):
    """A seeded layout of n slits on [-1, 1] with jittered slit and gap lengths."""
    rng = np.random.default_rng(seed)
    parts = rng.uniform(0.6, 1.4, 2 * n - 1)
    ends = -1.0 + np.concatenate(([0.0], np.cumsum(parts * (2.0 / parts.sum()))))
    ends[-1] = 1.0
    cfg = SlitConfiguration(ends.reshape(n, 2).tolist(), 0.3 + 3.0j)
    loading = Loading(1.0, 1.0, -1.0, 1.0)
    materials = MaterialSet(rng.uniform(0.1, 0.5, n).tolist())
    return cfg, loading, materials, FreeParameters(), NumericsConfig()


def spread_layout_inputs(n: int, seed: int):
    """slit_layout_inputs with its slit and gap lengths spread log-evenly over three decades, in seeded order."""
    cfg, loading, materials, free, numerics = slit_layout_inputs(n, seed)
    parts = np.random.default_rng(seed).permutation(np.logspace(-3.0, 0.0, 2 * n - 1))
    ends = -1.0 + np.concatenate(([0.0], np.cumsum(parts * (2.0 / parts.sum()))))
    ends[-1] = 1.0
    return SlitConfiguration(ends.reshape(n, 2).tolist(), cfg.zeta_inf), loading, materials, free, numerics


def sixteen_slit_inputs(seed: int = 16):
    """The seeded layout of 16 slits of :func:`slit_layout_inputs`."""
    return slit_layout_inputs(16, seed)


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded once."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        _load(name, _PERFBENCH / "workloads.py")
    return sys.modules[name]


def perfbench_run():
    """The benchmark's ``perfbench/run.py``, loaded once, with the modules it imports by their bare names.

    Its ``workloads`` is the module :func:`_workloads` loads; ``tracer`` and
    ``reference`` are loaded from ``perfbench/`` under those names.  run.py
    pins the BLAS thread counts in ``os.environ`` as it loads; the
    environment is restored after.
    """
    name = "perfbench_run"
    if name not in sys.modules:
        sys.modules.setdefault("workloads", _workloads())
        for sibling in ("tracer", "reference"):
            if sibling not in sys.modules:
                _load(sibling, _PERFBENCH / f"{sibling}.py")
        environ = dict(os.environ)
        try:
            _load(name, _PERFBENCH / "run.py")
        finally:
            os.environ.clear()
            os.environ.update(environ)
    return sys.modules[name]


def many_slits_docs(seed: int) -> list[dict]:
    """The config documents of the n = 16 layouts the benchmark's many_slits workload solves at ``seed``."""
    return list(_workloads().generate("many_slits", seed, None).docs.values())


def interior_field_inputs(seed: int) -> list[tuple[dict, np.ndarray]]:
    """(config document, targets) of each map the benchmark's interior_field workload evaluates at ``seed``."""
    workloads = _workloads()
    inputs = workloads.generate("interior_field", seed, workloads.load_bundled(inclusion_forge))
    return [(doc, inputs.targets[key]) for key, doc in inputs.docs.items()]


@pytest.fixture(scope="session")
def solve_figure():
    """Session-cached figure solver: solve_figure(name, N=None) -> SolveResult."""
    cache: dict = {}

    def run(name: str, N: int | None = None) -> pipeline.SolveResult:
        key = (name, N)
        if key not in cache:
            cfg, loading, materials, free, numerics, overrides = load_figure_inputs(
                name, N
            )
            cache[key] = pipeline.solve(
                cfg, loading, materials, free, numerics,
                override_a=overrides.get("a"),
                override_rho=overrides.get("rho"),
            )
        return cache[key]

    return run


@pytest.fixture(scope="session")
def corpus_maps_by_live_families(solve_figure):
    """The corpus cases, keyed by the families their maps keep terms of.

    The keys are tuples of family names read from ``kept_lengths()``, so
    ("g0_rho",) holds the maps whose phi density, and with it g_1, vanishes.
    """
    split: dict[tuple[str, ...], list[str]] = {}
    for case in figures.FIGURE_CASES:
        sm = solve_figure(case.name).slit_map
        live = tuple(name for name, kept in sm.kept_lengths().items() if kept > 0)
        split.setdefault(live, []).append(case.name)
    return split


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
