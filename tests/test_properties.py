"""Seeded properties of the solve over many slits, where no stored reference reaches.

* A similarity zeta -> s zeta + beta of a layout, with every endpoint and
  ``zeta_inf`` moved, maps the inclusions onto a similar set, so it must not
  change the verdict or the conditioning of the system solved, and it
  divides each a_j by s.  The density families it keeps terms of stay the
  same: a vanishing phi density, and with it g_1, still vanishes.
* The constants are resolved at the configured node count: doubling N
  moves them by no more than the solve's rounding, up to 96 slits, and the
  system solved stays well conditioned there and on layouts whose slit and
  gap lengths spread over three decades.
* Past a few slits the solve never forms the monomial moment table, whose
  conditioning grows exponentially in n.
"""

import dataclasses

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs, spread_layout_inputs

from inclusion_forge import figures, pipeline
from inclusion_forge.branch import BranchData, SlitTable
from inclusion_forge.model import SlitConfiguration, derive_constants
from inclusion_forge.solvability import period_matrix, solve_constants, system_matrix


def _similar(args, s: float, beta: float):
    """The inputs with the layout moved by zeta -> s zeta + beta."""
    cfg, loading, materials, free, numerics = args
    moved = SlitConfiguration([s * k + beta for k in cfg.endpoints], s * cfg.zeta_inf + beta)
    return moved, loading, materials, free, numerics


@pytest.mark.parametrize("s, beta", [(1.0, 2.0), (0.5, 0.0), (3.0, -5.0)])
@pytest.mark.parametrize("n, seed", [(16, 0), (16, 1), (24, 0), (32, 0), (32, 1)])
def test_a_similar_layout_gets_the_same_verdict(n, seed, s, beta):
    args = slit_layout_inputs(n, seed)
    base, moved = pipeline.solve(*args), pipeline.solve(*_similar(args, s, beta))
    assert moved.verdict == base.verdict
    # the system solved is the same up to a scale: one cond for both
    cond = base.diagnostics.solvability_cond
    assert abs(moved.diagnostics.solvability_cond - cond) <= 1e-9 * cond
    # with the pole at a finite point, a_j scales like 1/s
    want = base.constants.a / s
    assert np.abs(moved.constants.a - want).max() <= 1e-9 * np.abs(want).max()
    assert _live_families(moved) == _live_families(base)


def _live_families(result) -> tuple[str, ...]:
    return tuple(name for name, kept in result.slit_map.kept_lengths().items() if kept > 0)


# the corpus maps of two or more slits with a finite pole and no overrides
_FINITE_POLE_MAPS = [
    case.name for case in figures.FIGURE_CASES
    if (doc := figures.load_case(case.name))["n"] >= 2 and doc["zeta_inf"] != "infinity" and "overrides" not in doc
]


@pytest.mark.parametrize("s, beta", [(1.0, 2.0), (0.5, 0.0), (3.0, -5.0)])
@pytest.mark.parametrize("name", _FINITE_POLE_MAPS)
def test_a_similar_corpus_map_keeps_the_same_density_families(name, s, beta):
    args = load_figure_inputs(name)[:5]
    base, moved = pipeline.solve(*args), pipeline.solve(*_similar(args, s, beta))
    assert moved.verdict == base.verdict
    assert _live_families(moved) == _live_families(base)


def _constants(args, N: int):
    cfg, loading, materials, free, numerics = args
    derived = derive_constants(loading, materials, cfg, free)
    period = period_matrix(BranchData(cfg.endpoints), dataclasses.replace(numerics, N=N))
    return solve_constants(period, derived, free)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [24, 32, 40, 48, 64, 96])
def test_constants_are_resolved_at_the_configured_node_count(n, seed):
    args = slit_layout_inputs(n, seed)
    N = args[4].N
    coarse, fine = _constants(args, N), _constants(args, 2 * N)
    for got, want in ((coarse.a, fine.a), (coarse.rho, fine.rho)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# the jittered layouts of the most slits, and slit and gap lengths over three decades
_CONDITIONED = [(slit_layout_inputs, n) for n in (48, 64, 96)] + [
    (spread_layout_inputs, n) for n in (4, 8, 16, 24, 32, 48, 64)
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("layout, n", _CONDITIONED, ids=lambda c: getattr(c, "__name__", c))
def test_the_system_solved_stays_well_conditioned(layout, n, seed):
    # Diagnostics.solvability_cond, without the rest of the solve
    cfg, *_, numerics = layout(n, seed)
    period = period_matrix(BranchData(cfg.endpoints), numerics)
    assert np.linalg.cond(system_matrix(period)) <= 30.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forty_slits_are_not_graded_unbounded(seed):
    result = pipeline.solve(*slit_layout_inputs(40, seed))
    assert result.verdict != pipeline.VERDICT_UNBOUNDED
    bounded = result.diagnostics.boundedness
    assert max(bounded["a_relative"], bounded["rho_relative"]) <= result.diagnostics.tol_solve


def test_a_sixteen_slit_solve_never_forms_the_monomial_table(monkeypatch):
    built = []
    powers = SlitTable.__dict__["powers"].func

    def spy(table):
        built.append(table.nodes.shape)
        return powers(table)

    monkeypatch.setattr(SlitTable, "powers", property(spy))
    pipeline.solve(*sixteen_slit_inputs())
    assert built == []
    # the spy is live: the printed three-slit forms read the monomial moments
    result = pipeline.solve(*load_figure_inputs("fig3a")[:5])
    assert result.diagnostics.cross_check["applied"] and built
