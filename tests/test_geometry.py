import collections
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import load_figure_inputs, sixteen_slit_inputs, slit_layout_inputs
from oracles import (
    central_symmetry_deviation,
    conjugation_symmetry_deviation,
    hausdorff_all_pairs,
    hausdorff_distance,
    pair_contact_all_pairs,
    segments_cross_matrix,
    self_crossing_all_pairs,
    symmetry_checks,
)

from inclusion_forge import figures, geometry, mapper, pipeline
from inclusion_forge.geometry import (
    ContourProfile,
    bank_parameter_grid,
    build_profiles,
    contacts,
    fit_ellipse,
)
from inclusion_forge.model import (
    AT_INFINITY,
    FreeParameters,
    Loading,
    MaterialSet,
    NumericsConfig,
    SlitConfiguration,
)


def polyline_profile(points, slit_index=0):
    z = np.asarray(points, dtype=complex)
    if z[0] != z[-1]:
        z = np.append(z, z[0])
    k = len(z)
    # xi numbers the vertices, so a contact record names segment indices
    return ContourProfile(slit_index, z, np.arange(k), np.ones(k, dtype=int), 0.0)


def square(center=0.0 + 0.0j, side=1.0):
    h = side / 2.0
    corners = np.array([-h - 1j * h, h - 1j * h, h + 1j * h, -h + 1j * h])
    return polyline_profile(corners + center)


def ellipse_points(a=2.0, b=1.0, n=64, center=0j, tilt=0.0):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return center + np.exp(1j * tilt) * (a * np.cos(t) + 1j * b * np.sin(t))


def test_profiles_are_closed_and_counterclockwise(solve_figure):
    res = solve_figure("fig1b")
    for p in res.profiles:
        assert p.points[0] == p.points[-1]
        assert p.signed_area > 0
        assert p.closure_error <= 1e-8 * p.diameter


def test_extents_are_computed_once_and_stay_out_of_equality(solve_figure):
    for p in solve_figure("fig3a").profiles:
        twin = ContourProfile(p.slit_index, p.points, p.xi, p.bank, p.closure_error)
        z = p.points
        box = (z.real.min(), z.imag.min(), z.real.max(), z.imag.max())
        assert p.bbox == box
        assert p.diameter == np.hypot(box[2] - box[0], box[3] - box[1])
        x, y = z.real, z.imag
        assert p.signed_area == 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
        assert p.bbox is p.bbox and p.diameter is p.diameter
        assert p.signed_area is p.signed_area
        assert p == twin and twin == p
        cached = {"bbox", "diameter", "signed_area"}
        assert {f.name for f in dataclasses.fields(p)}.isdisjoint(cached)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.bbox = (0.0, 0.0, 1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.signed_area = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.points = z


def test_profiles_built_from_equal_arrays_compare_equal_and_are_unhashable():
    rng = np.random.default_rng(3)
    z = rng.normal(size=9) + 1j * rng.normal(size=9)
    xi, bank = np.linspace(-1.0, 1.0, 9), np.where(np.arange(9) < 5, 1, -1)
    p = ContourProfile(2, z, xi, bank, 1e-15)
    twin = ContourProfile(2, z.copy(), xi.copy(), bank.copy(), 1e-15)
    assert p.points is not twin.points
    assert p == twin and not p != twin
    _ = p.signed_area  # an extent cached on one side only leaves equality alone
    assert p == twin
    moved = z.copy()
    moved[4] += 1e-12
    assert p != ContourProfile(2, moved, xi, bank, 1e-15)
    assert p != ContourProfile(3, z, xi, bank, 1e-15)
    assert p != ContourProfile(2, z, xi, -bank, 1e-15)
    assert p != ContourProfile(2, z, xi, bank, 2e-15)
    assert p != "not a profile"
    with pytest.raises(TypeError, match="unhashable type: 'ContourProfile'"):
        hash(p)


def test_solve_computes_each_signed_area_at_most_twice(monkeypatch):
    # once on the traced polyline, once on its counterclockwise copy if reversed
    cached = ContourProfile.__dict__["signed_area"]
    original = cached.func
    areas = []

    def counted(self):
        areas.append(self.slit_index)
        return original(self)

    monkeypatch.setattr(cached, "func", counted)
    for name in ("fig1a", "fig3a", "fig4d"):
        cfg, loading, materials, free, numerics, _ = load_figure_inputs(name)
        areas.clear()
        res = pipeline.solve(cfg, loading, materials, free, numerics)
        [p.signed_area for p in res.profiles]  # read again after the solve
        counts = collections.Counter(areas)
        assert sorted(counts) == [p.slit_index for p in res.profiles]
        assert max(counts.values()) <= 2


def test_orientation_normalization_is_idempotent():
    p = square()
    assert p.oriented_ccw() is p.oriented_ccw().oriented_ccw()
    flipped = ContourProfile(0, p.points[::-1], p.xi, p.bank, 0.0)
    fixed = flipped.oriented_ccw()
    assert fixed.signed_area > 0


def test_every_bundled_contour_is_traced_counterclockwise(solve_figure):
    for case in figures.FIGURE_CASES:
        res = solve_figure(case.name)
        assert res.diagnostics.geometry["orientation"] == [1] * len(res.profiles), case.name


@pytest.mark.parametrize("s, delta, turn", [
    (0.9, 0.19, -1), (1.0, 0.0, -1), (1.2, 0.37, -1), (3.0, 3.71, 1),
])
def test_single_inclusion_records_the_orientation_it_was_traced_in(s, delta, turn):
    # kappa = 0.3, tau = 1 + i and tau_inf = tau (1 + kappa) / (2 kappa) s
    tau_inf = (1 + 1j) * 1.3 / 0.6 * s
    loading = Loading(tau1=1.0, tau2=1.0, tau1_inf=tau_inf.real, tau2_inf=tau_inf.imag)
    materials = MaterialSet([0.3])
    assert abs(mapper.n1_shape_ratio(loading, materials)) == pytest.approx(delta, abs=0.005)
    res = pipeline.solve(SlitConfiguration([(-1.0, 1.0)], AT_INFINITY), loading, materials)
    assert res.diagnostics.geometry["orientation"] == [turn]
    assert res.profiles[0].signed_area > 0
    # the sign of the traced path's own area: top bank left to right, bottom back
    grid = bank_parameter_grid(-1.0, 1.0, NumericsConfig().P)
    top, bot = (mapper.n1_slit_profile(grid, b, loading, materials, FreeParameters())
                for b in (1, -1))
    traced = polyline_profile(np.concatenate([top, bot[-2:0:-1]]))
    assert np.sign(traced.signed_area) == turn


def _traced_profiles(sm, P):
    """The contours of a solved map at P samples per bank."""
    ends = np.array(sm.branch.slits)
    grid = bank_parameter_grid(ends[:, :1], ends[:, 1:], P)
    return build_profiles(grid, sm.banks(grid).omega)


def test_refinement_keeps_profiles_stable(solve_figure):
    res = solve_figure("fig1b")
    sm = res.slit_map
    coarse = _traced_profiles(sm, 1600)
    fine = _traced_profiles(sm, 3200)
    for pc, pf in zip(coarse, fine):
        hd = hausdorff_distance(pc.points, pf.points)
        assert hd < 1e-6 * pc.diameter


def test_hausdorff_distance_is_exact_in_bounded_memory(solve_figure):
    sm = solve_figure("fig1b").slit_map
    small, large = (_traced_profiles(sm, P)[0].points for P in (300, 700))
    # many row blocks; min and max are exact, so the value is the all-pairs one
    assert hausdorff_distance(small, large) == hausdorff_all_pairs(small, large)
    coarse, fine = (_traced_profiles(sm, P)[0].points for P in (1600, 3200))
    tracemalloc.start()
    try:
        hausdorff_distance(coarse, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_degenerate_contour_is_flagged():
    seg = np.linspace(-1.0, 1.0, 21)
    wire = polyline_profile(np.concatenate([seg, seg[::-1][1:]]))
    assert wire.degenerate
    assert not square().degenerate


def contact_reasons(*profiles):
    """The reason of each failed test among the profiles, in test order."""
    return [c["reason"] for c in contacts(profiles)]


def test_self_intersection_detects_figure_eight():
    eight = polyline_profile([-1 - 1j, 1 + 1j, 1 - 1j, -1 + 1j])
    assert contacts([eight]) == [
        {"contours": [0, 0], "reason": "cross", "at": [[0.0, 1], [2.0, 1]]}
    ]
    assert contacts([square()]) == []


def test_far_translated_copies_are_disjoint():
    s1 = square()
    s2 = square(center=10.0 + 0.0j)
    assert contact_reasons(s1, s2) == []
    assert contact_reasons(s2, s1) == []


def test_overlapping_and_nested_contours_are_not_disjoint():
    a, b = square(), square(center=0.4 + 0.3j)
    assert contact_reasons(a, b) == ["cross"]
    assert contact_reasons(b, a) == ["cross"]
    outer = square(side=4.0)
    inner = square(side=1.0)
    assert contact_reasons(outer, inner) == ["nested"]
    assert contact_reasons(inner, outer) == ["nested"]


def test_touching_contours_count_as_intersecting():
    s1 = square()
    s2 = square(center=1.0 + 1e-12j)  # shares the x = 0.5 edge within 1e-12
    assert contact_reasons(s1, s2) == ["cross"]  # a collinear overlap
    s3 = square(center=1.0 + 1e-12)  # a 1e-12 gap between the edges
    assert contact_reasons(s1, s3) == ["touch"]


def test_predicates_invariant_under_translation_and_scaling():
    s1, s2 = square(), square(center=0.4 + 0.3j)
    eight = polyline_profile([-1 - 1j, 1 + 1j, 1 - 1j, -1 + 1j])
    for shift, scale in ((5.0 - 7.0j, 3.0), (-2.0 + 0.1j, 0.25)):
        t1 = polyline_profile(s1.points * scale + shift)
        t2 = polyline_profile(s2.points * scale + shift)
        assert contacts([t1, t2]) == contacts([s1, s2])
        moved = polyline_profile(eight.points * scale + shift)
        assert contacts([moved]) == contacts([eight])
    far1, far2 = square(), square(center=10.0)
    moved1 = polyline_profile(far1.points * 2.0 + 1j)
    moved2 = polyline_profile(far2.points * 2.0 + 1j)
    assert contacts([moved1, moved2]) == []


def test_figure_geometry_classifications(solve_figure):
    bad = solve_figure("fig4d").profiles
    assert contact_reasons(bad[0], bad[1]) == ["cross"]
    assert contacts(solve_figure("fig4a").profiles) == []


def test_fig4d_contacts_name_the_crossing_segments(solve_figure):
    res = solve_figure("fig4d")
    contacts = res.diagnostics.geometry["contacts"]
    assert [c["contours"] for c in contacts] == [[0, 1], [0, 2], [1, 2]]
    for record in contacts:
        assert record["reason"] == "cross"
        segments = []
        for m, (xi, bank) in zip(record["contours"], record["at"]):
            p = res.profiles[m]
            k = np.flatnonzero((p.xi[:-1] == xi) & (p.bank[:-1] == bank))[0]
            segments.append(p.points[k:k + 2])
        s, t = segments
        assert segments_cross_matrix(s[:1], s[1:], t[:1], t[1:])[0, 0]
    assert solve_figure("fig4a").diagnostics.geometry["contacts"] == []


def random_closed_polyline(rng):
    """3-15 vertices: star-shaped (simple) or scattered (often self-crossing).

    30% of them are snapped to a 1/4 grid, so exact collinear overlaps
    and shared vertices occur.
    """
    k = int(rng.integers(3, 16))
    if rng.random() < 0.5:
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        z = rng.uniform(0.3, 1.0, k) * np.exp(1j * theta)
    else:
        z = rng.uniform(-1.0, 1.0, k) + 1j * rng.uniform(-1.0, 1.0, k)
    if rng.random() < 0.3:
        z = np.round(4.0 * z.real) / 4.0 + 1j * np.round(4.0 * z.imag) / 4.0
    return np.append(z, z[0])


def placed_copy(rng, z):
    """A second polyline far from, overlapping, nested in or touching z."""
    w = random_closed_polyline(rng)
    mode = rng.integers(5)
    if mode == 0:  # far apart
        return w + 5.0 * np.exp(2j * np.pi * rng.random())
    if mode == 1:  # overlapping
        return w + rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
    if mode == 2:  # nested, either way round
        return 0.1 * w if rng.random() < 0.5 else 5.0 * w
    # z mirrored about its rightmost vertex, which both then share exactly
    mirrored = 2.0 * z.real.max() - z.real + 1j * z.imag
    if mode == 3:
        return mirrored
    return mirrored + (1e-12 if rng.random() < 0.5 else 1e-12j)  # a 1e-12 gap


def oracle_contacts(polylines):
    """The records of ``contacts`` built test by test from the all-pairs oracles."""
    def at(i, j):
        return [[float(i), 1], [float(j), 1]]

    records = [
        {"contours": [m, m], "reason": "cross", "at": at(*want)}
        for m, z in enumerate(polylines)
        if (want := self_crossing_all_pairs(z)) is not None
    ]
    for (m, z), (k, w) in itertools.combinations(enumerate(polylines), 2):
        want = pair_contact_all_pairs(z, w)
        if want is not None:
            reason, i, j = want
            records.append({
                "contours": [m, k], "reason": reason,
                "at": None if reason == "nested" else at(i, j),
            })
    return records


def test_predicates_match_the_all_pairs_oracle():
    rng = np.random.default_rng(4)
    reasons = {"cross": 0, "touch": 0, "nested": 0, None: 0}
    self_crossing = 0
    for _ in range(2500):
        z = random_closed_polyline(rng)
        p = polyline_profile(z)
        assert contacts([p]) == oracle_contacts([z])
        self_crossing += self_crossing_all_pairs(z) is not None
        w = placed_copy(rng, z)
        q = polyline_profile(w, slit_index=1)
        want = pair_contact_all_pairs(z, w)
        assert contacts([p, q]) == oracle_contacts([z, w])
        reasons[None if want is None else want[0]] += 1
    assert self_crossing > 500
    assert min(reasons.values()) > 100


def test_contacts_of_many_contours_match_the_all_pairs_oracle():
    # one sweep over all contours: each test must still see only its own
    # candidates, under its own pad, and the records keep the test order
    rng = np.random.default_rng(9)
    reasons = {"cross": 0, "touch": 0, "nested": 0}
    for _ in range(600):
        polylines = [random_closed_polyline(rng)]
        for _ in range(int(rng.integers(0, 5))):
            polylines.append(placed_copy(rng, polylines[int(rng.integers(len(polylines)))]))
        want = oracle_contacts(polylines)
        profiles = [polyline_profile(z, slit_index=m) for m, z in enumerate(polylines)]
        assert contacts(profiles) == want
        for record in want:
            reasons[record["reason"]] += record["contours"][0] != record["contours"][1]
    assert min(reasons.values()) > 50


def test_contacts_of_contours_of_very_different_sizes_match_the_all_pairs_oracle():
    # each segment's box grows by its own contour's pad, yet a pair's touch
    # test uses the larger pad: a tiny contour a fraction of the big one's pad
    # away must still touch it
    rng = np.random.default_rng(12)
    reasons = collections.Counter()
    for _ in range(400):
        scale = 10.0 ** rng.integers(-3, 7)
        big = random_closed_polyline(rng) * scale
        tiny = random_closed_polyline(rng) * scale * 10.0 ** -rng.integers(0, 13)
        if rng.random() < 0.2:  # inside the big contour's box, maybe nested
            tiny = tiny + big.mean()
        else:  # right of its rightmost vertex, 0.3 to 3 of its pads away
            pad = 1e-9 * np.hypot(np.ptp(big.real), np.ptp(big.imag))
            k = np.argmax(big.real)
            tiny = tiny - tiny[np.argmin(tiny.real)] + big[k] + rng.uniform(0.3, 3.0) * pad
        polylines = [big, tiny]
        want = oracle_contacts(polylines)
        profiles = [polyline_profile(z, slit_index=m) for m, z in enumerate(polylines)]
        assert contacts(profiles) == want
        reasons.update([next((r["reason"] for r in want if r["contours"] == [0, 1]), None)])
    assert min(reasons[r] for r in ("touch", "nested", None)) > 20


def _contacts_peak(profiles) -> tuple[list[dict], int, int]:
    """The records of contacts, its tracemalloc peak and the bytes of its two segment arrays."""
    tracemalloc.start()
    try:
        records = contacts(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, peak, sum(32 * (len(p.points) - 1) for p in profiles)


@pytest.mark.parametrize("n", [72, 80])
def test_many_slit_layouts_finish_with_geometry_in_bounded_memory(n):
    # the largest contour's pad once grew every box: at n = 72 the sweep asked
    # for 27.8M pairs at once and needed ~3.9 GB
    res = pipeline.solve(*slit_layout_inputs(n))
    records, peak, segment_bytes = _contacts_peak(res.profiles)
    assert records == res.diagnostics.geometry["contacts"]
    # about a dozen arrays of one entry per segment, and one block of pairs
    assert peak < 16 * segment_bytes


def _near_vertical_inputs():
    # kappa -> 1 stretches the contours into near-vertical slivers that share
    # one x-range
    cfg, loading, _, free, numerics, _ = load_figure_inputs("fig3a")
    return (cfg, loading, MaterialSet([0.1, 0.1, 1 + 1e-9]), free,
            dataclasses.replace(numerics, P=3200))


def test_near_vertical_contours_sweep_in_bounded_memory():
    # swept along x, their runs would hold 29M pairs, walked a block at a
    # time; swept along y, they hold a few thousand
    res = pipeline.solve(*_near_vertical_inputs())
    x0, _, x1, _ = res.profiles[0].bbox
    assert x1 - x0 < 1e-6 * res.profiles[0].diameter
    records, peak, segment_bytes = _contacts_peak(res.profiles)
    assert records == res.diagnostics.geometry["contacts"]
    assert peak < 16 * segment_bytes


def test_near_vertical_contours_are_swept_along_y(monkeypatch):
    # along x every segment's run spans nearly all others: 2017 blocks
    blocks = []
    original = geometry._candidate_pairs

    def counted(s0, s1, pad):
        for block in original(s0, s1, pad):
            blocks.append(len(block[0]))  # candidates left after the prune
            yield block

    monkeypatch.setattr(geometry, "_candidate_pairs", counted)
    res = pipeline.solve(*_near_vertical_inputs())
    assert len(blocks) <= 8
    assert [r["reason"] for r in res.diagnostics.geometry["contacts"]] == ["nested", "nested"]


@pytest.mark.parametrize("case, n", [("fig3a", 3), ("fig4d", 3), ("sixteen", 16)])
def test_solve_sweeps_the_segments_once(monkeypatch, case, n):
    if case == "sixteen":
        cfg, loading, materials, free, numerics = sixteen_slit_inputs()
    else:
        cfg, loading, materials, free, numerics, _ = load_figure_inputs(case)
    sizes = []
    original = geometry._candidate_pairs

    def counted(s0, s1, pad):
        sizes.append(len(s0))
        return original(s0, s1, pad)

    monkeypatch.setattr(geometry, "_candidate_pairs", counted)
    pipeline.solve(cfg, loading, materials, free, numerics)
    assert sizes == [n * (2 * numerics.P - 2)]


def test_fig3a_at_1600_points_is_valid_with_small_geometry_memory():
    cfg, loading, materials, free, numerics, _ = load_figure_inputs("fig3a")
    numerics = NumericsConfig(N=numerics.N, M=numerics.M, P=1600,
                              tol_solve=numerics.tol_solve)
    res = pipeline.solve(cfg, loading, materials, free, numerics)
    assert res.verdict == pipeline.VERDICT_VALID
    tracemalloc.start()
    try:
        assert contacts(res.profiles) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # the all-pairs matrices needed ~470 MB here


def test_conic_fit_residuals():
    assert fit_ellipse(ellipse_points()) < 1e-12
    assert fit_ellipse(ellipse_points(tilt=0.7, center=3.0 - 2.0j)) < 1e-12
    assert fit_ellipse(square().points) > 1e-2


def test_symmetry_checks_on_symmetric_pair(solve_figure):
    res = solve_figure("fig2a")
    report = symmetry_checks(list(res.profiles))
    assert report.central_deviation is not None
    assert report.central_deviation < 1e-12


def test_central_symmetry_detects_asymmetry(solve_figure):
    res = solve_figure("fig1c")  # unequal stiffness ratios
    dev = central_symmetry_deviation(res.profiles[0], res.profiles[1])
    scale = max(p.diameter for p in res.profiles)
    assert dev > 1e-2 * scale


def test_conjugation_deviation_on_real_data(solve_figure):
    res = solve_figure("fig2c")
    for p in res.profiles:
        assert conjugation_symmetry_deviation(p) < 1e-13


def test_bank_parameter_grid_spans_interval():
    g = bank_parameter_grid(0.5, 1.0, 33)
    assert g[0] == 0.5 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
