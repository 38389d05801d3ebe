import numpy as np
import pytest

from inclusion_forge import cli, figures, pipeline
from inclusion_forge.model import NumericsConfig


def load_figure_inputs(name: str, N: int | None = None):
    """Model objects for a bundled figure case, optionally at N = M = N."""
    doc = figures.load_case(name)
    cfg, loading, materials, free, numerics, overrides = cli.parse_config(doc)
    if N is not None:
        numerics = NumericsConfig(N=N, M=N, P=numerics.P, tol_solve=numerics.tol_solve)
    return cfg, loading, materials, free, numerics, overrides


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
