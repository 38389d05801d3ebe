"""The off-slit routes of solved maps, read from their route record."""

import gc
import weakref

import numpy as np
import pytest
from conftest import interior_field_inputs

from inclusion_forge import cli, interior, mapper, pipeline

_ROUTES = interior.Route._fields[:5]


def _interior_field_maps(seed):
    """(map, targets) of each map the benchmark's interior_field workload evaluates at ``seed``."""
    return [(pipeline.solve(*cli.parse_config(doc)[:5]).slit_map, z) for doc, z in interior_field_inputs(seed)]


def _names(route, size):
    """The route of each of ``size`` targets, by name."""
    out = np.empty(size, dtype=object)
    for name in _ROUTES:
        out[getattr(route, name)] = name
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_the_routes_partition_the_targets_by_their_switches(seed):
    # far and band targets lie inside their ring of the hull's w, and only
    # where the family set has that series; band targets only below four
    # slits, beside and balanced targets only from four on; a beside target
    # lies in the reach of the slit between the gap midpoints around it, and
    # a balanced target where |omega| reaches its largest value on the slits
    for sm, z in _interior_field_maps(seed):
        off, n = sm._off_slit(), sm.branch.n
        for fams in (mapper._PHI, mapper._MAP):
            if not sm._live[fams].any():
                continue
            route = off.route(fams, z)
            parts = [getattr(route, name) for name in _ROUTES]
            np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(z.size))
            assert all((np.diff(part) > 0).all() for part in parts)
            names = mapper.FAMILIES[fams]
            assert not len(route.far) or off.far[names] is not None
            assert not len(route.band) or (off.band[names] is not None and n < mapper._BALANCED_FROM)
            assert np.abs(route.far_w).max(initial=0.0) <= 0.5 * (1.0 + 1e-12)
            assert (np.abs(route.band_w) > 0.5 * (1.0 - 1e-12)).all()
            assert np.abs(route.band_w).max(initial=0.0) <= 0.8 * (1.0 + 1e-12)
            t, slit = z[route.beside], route.slit
            np.testing.assert_array_equal(slit, np.searchsorted(sm.branch.gaps, t.real))
            if len(t):
                assert (np.abs(t - sm._lo[slit]) + np.abs(t - sm._hi[slit]) <= off.reach[slit]).all()
            np.testing.assert_array_equal(route.omega, sm.branch.omega(z[route.balanced]))
            assert (np.abs(route.omega) >= off.omega_max).all()
            if n < mapper._BALANCED_FROM:
                assert not len(route.beside) and not len(route.balanced)
            elif off.flags[fams].any():
                assert (np.abs(sm.branch.omega(z[route.plain])) < off.omega_max).all()


def test_each_targets_route_does_not_depend_on_the_batch():
    # the route of a target is a function of the target and the map alone
    for sm, z in _interior_field_maps(0):
        z = z[::50]
        for fams in (mapper._PHI, mapper._MAP):
            whole = _names(sm._off_slit().route(fams, z), z.size)
            one_by_one = [_names(sm._off_slit().route(fams, z[i : i + 1]), 1)[0] for i in range(z.size)]
            assert whole.tolist() == one_by_one


def test_targets_on_a_closed_slit_have_no_route():
    doc, _ = interior_field_inputs(0)[0]
    sm = pipeline.solve(*cli.parse_config(doc)[:5]).slit_map
    with pytest.raises(mapper.EvaluationError):
        sm._off_slit().route(mapper._MAP, np.array([2.0 + 1.0j, sm.branch.endpoints[0] + 0j]))
    empty = sm._off_slit().route(mapper._MAP, np.zeros(0, dtype=complex))
    assert not any(len(part) for part in empty)


def test_a_map_is_freed_with_its_last_reference_after_an_interior_call():
    # the map holds its OffSlit, which refers back to it weakly, so no cycle
    # waits for the garbage collector
    doc, z = interior_field_inputs(0)[0]
    sm = pipeline.solve(*cli.parse_config(doc)[:5]).slit_map
    sm.omega_interior(z[:3])
    ref = weakref.ref(sm)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sm
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
