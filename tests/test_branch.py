import numpy as np
import pytest
from oracles import branch_by_continuity, branch_principal_product

from inclusion_forge.branch import (
    BranchData,
    abs_q,
    bank_value,
    eval_q,
    top_bank_sign,
    weight_factor,
)
from inclusion_forge.model import EvaluationError

SINGLE = BranchData((-1.0, 1.0))
PAIR = BranchData((-1.0, -0.5, 0.5, 1.0))
TRIPLE = BranchData((-1.0, -0.5, -0.1, 0.1, 0.5, 1.0))


def test_single_slit_value_beyond_endpoint():
    assert eval_q(SINGLE, 2.0) == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_far_field_normalization():
    for z in (1e6 + 0.0j, 1e6 * np.exp(0.4j), -1e6 + 3.0j):
        assert abs(eval_q(PAIR, z) / z**2 - 1.0) < 1e-5


def test_gap_value_matches_continuity_walk():
    # independent oracle: literal sign-continuity walk from the real axis
    # beyond the last endpoint, detouring above the cuts
    target = 0.0 + 1e-9j
    oracle = branch_by_continuity(PAIR.endpoints, target)
    assert eval_q(PAIR, target) == pytest.approx(oracle, rel=1e-9)
    # the gap value is real and negative for this configuration
    probe = eval_q(PAIR, 1e-12j)
    assert probe.real == pytest.approx(-0.5, rel=1e-10)


@pytest.mark.parametrize(
    "endpoints,target",
    [
        ((-1.0, -0.5, 0.5, 1.0), -2.0 + 1e-9j),
        ((-1.0, -0.5, -0.1, 0.1, 0.5, 1.0), 0.3 + 0.7j),
        ((-1.0, -0.8, -0.1, 0.1, 0.8, 1.0), -0.45 + 1e-9j),
        ((-1.5, -0.9, -0.3, 0.2, 0.4, 0.8, 1.1, 1.6), 0.3 + 1e-9j),
    ],
)
def test_branch_matches_continuity_walk(endpoints, target):
    oracle = branch_by_continuity(endpoints, target)
    assert eval_q(BranchData(endpoints), target) == pytest.approx(oracle, rel=1e-8)


def test_two_slit_bank_signs_as_published():
    # right slit: q = +-i|q| on the top/bottom bank; left slit: the opposite
    xi_r, xi_l = 0.75, -0.75
    vr = bank_value(PAIR, xi_r, 1, +1)
    assert vr.real == 0.0 and vr.imag > 0
    assert bank_value(PAIR, xi_r, 1, -1) == -vr
    vl = bank_value(PAIR, xi_l, 0, +1)
    assert vl.real == 0.0 and vl.imag < 0


def test_three_slit_bank_signs_alternate():
    expected_top = {0: +1, 1: -1, 2: +1}
    for m, sign in expected_top.items():
        mid = sum(TRIPLE.slit(m)) / 2.0
        v = bank_value(TRIPLE, mid, m, +1)
        assert np.sign(v.imag) == sign


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_rule_matches_published_indexing(n):
    # published rule indexes slits from the right: on l_{n-j-1} the top bank
    # carries +i(-1)^j; restated per slit m that is (-1)^(n-1-m)
    for j in range(n):
        m = n - j - 1
        assert top_bank_sign(n, m) == (-1) ** j


def test_bank_consistency():
    xi = np.linspace(0.55, 0.95, 7)
    top = bank_value(PAIR, xi, 1, +1)
    bot = bank_value(PAIR, xi, 1, -1)
    np.testing.assert_allclose(top, np.conj(bot), rtol=0, atol=0)
    np.testing.assert_allclose(top, -bot, rtol=0, atol=0)


def test_bank_endpoint_is_exactly_zero():
    assert bank_value(PAIR, 0.5, 1, +1) == 0j
    assert bank_value(PAIR, 1.0, 1, -1) == 0j


@pytest.mark.parametrize("branch,m,xi", [(PAIR, 1, 0.7), (TRIPLE, 1, 0.05)])
def test_plemelj_consistency(branch, m, xi):
    limit = eval_q(branch, xi + 1e-6j)
    bank = bank_value(branch, xi, m, +1)
    assert abs(limit - bank) / abs(bank) < 1e-3


def test_schwarz_reflection():
    for z in (0.3 + 0.8j, -2.0 + 0.1j, 1.2 - 0.4j):
        assert eval_q(PAIR, np.conj(z)) == pytest.approx(
            np.conj(eval_q(PAIR, z)), rel=1e-14
        )


def test_eval_q_rejects_points_on_slits():
    with pytest.raises(EvaluationError):
        eval_q(PAIR, 0.7)
    with pytest.raises(EvaluationError):
        eval_q(PAIR, np.array([3.0, 0.5 + 0j]))
    # real points off the slits are fine
    assert eval_q(PAIR, 0.0) == pytest.approx(-0.5, rel=1e-12)


def test_weight_factor_single_slit_is_one():
    xi = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(weight_factor(SINGLE, xi, 0), 1.0, rtol=0, atol=0)


def test_weight_factor_defining_identity():
    a, b = PAIR.slit(1)
    xi = np.linspace(a + 1e-3, b - 1e-3, 9)
    lhs = weight_factor(PAIR, xi, 1) ** 2 * (xi - a) * (b - xi)
    p = np.prod(xi[:, None] - np.asarray(PAIR.endpoints), axis=1)
    np.testing.assert_allclose(lhs, np.abs(p), rtol=1e-13)


def test_weight_factor_endpoint_limit():
    # symbolic limit at the left endpoint of the right slit: |p| carries
    # |xi-k2||k3-xi| which the weight removes, leaving the two far factors
    k0, k1, k2, k3 = PAIR.endpoints
    expected = np.sqrt(abs((k2 - k0) * (k2 - k1)))
    assert weight_factor(PAIR, k2, 1) == pytest.approx(expected, rel=1e-14)
    # consistency with the interior limit
    assert weight_factor(PAIR, k2 + 1e-9, 1) == pytest.approx(expected, rel=1e-8)


def test_weight_factor_rejects_outside_points():
    with pytest.raises(EvaluationError):
        weight_factor(PAIR, 0.2, 1)


def test_abs_q_is_sqrt_of_abs_p():
    xi = 0.66
    p = np.prod(xi - np.asarray(PAIR.endpoints))
    assert abs_q(PAIR, xi) == pytest.approx(np.sqrt(abs(p)), rel=1e-14)


# -- one root per slit against the principal-root product ------------------------


def _seeded_branch(rng, n):
    """n slits with jittered slit and gap lengths, on a random span and offset."""
    parts = rng.uniform(0.2, 1.8, 2 * n - 1)
    span = 10.0 ** rng.uniform(-1.0, 1.0)
    steps = np.concatenate(([0.0], np.cumsum(parts))) / parts.sum()
    return BranchData(rng.uniform(-2.0, 2.0) + span * steps)


def _branch_targets(branch, rng):
    """Off-slit targets of every kind the branch has to get right.

    Real targets (in every gap, outside the slits, just off every endpoint
    outward) come with +0 and with -0 imaginary parts.
    """
    k = np.asarray(branch.endpoints)
    lo, hi, span = k[0], k[-1], k[-1] - k[0]
    free = rng.uniform(lo - span, hi + span, 40) + 1j * span * rng.uniform(-1.5, 1.5, 40)
    heights = span * 10.0 ** np.arange(-12.0, 3.0)
    centres = (k[::2] + k[1::2]) / 2
    vertical = (centres[:, None] + 1j * np.concatenate([heights, -heights])).ravel()
    gaps = k[1:-1].reshape(-1, 2)  # (k_{2j+1}, k_{2j+2}): the gaps between slits
    in_gaps = gaps[:, :1] + (gaps[:, 1:] - gaps[:, :1]) * [1e-6, 0.3, 0.5, 1 - 1e-6]
    outside = span * np.array([1e-6, 0.5, 30.0])
    axis = [in_gaps.ravel(), lo - outside, hi + outside]
    off_axis = [free, vertical]
    outward = np.where(np.arange(len(k)) % 2 == 0, -1.0, 1.0)
    angles = np.pi * np.array([0.25, 0.5, 0.75, -0.25, -0.5, -0.75])
    for delta in (1e-9, 1e-12):
        axis.append(k + delta * span * outward)
        off_axis.append((k[:, None] + delta * span * np.exp(1j * angles)).ravel())
    x = np.concatenate(axis) + 0j
    return np.concatenate(off_axis + [x, np.conj(x)])


@pytest.mark.parametrize("n", range(1, 9))
def test_one_root_per_slit_matches_the_principal_root_product(n):
    rng = np.random.default_rng([7, n])
    for layout in range(6):
        branch = _seeded_branch(rng, n)
        z = _branch_targets(branch, rng)
        got = eval_q(branch, z)
        ref = branch_principal_product(branch.endpoints, z)
        err = np.abs(got - ref) / np.abs(ref)
        assert err.max() <= 1e-14
        if layout == 0:
            # the continuity walk descends from above at Re(target), so it
            # applies to targets above the axis or over no closed slit
            k = np.asarray(branch.endpoints)
            on_slit = (np.searchsorted(k, z.real, "left") % 2 == 1) | (
                np.searchsorted(k, z.real, "right") % 2 == 1
            )
            walkable = z[(z.imag > 0.0) | ~on_slit]
            for target in rng.choice(walkable, 4, replace=False):
                oracle = branch_by_continuity(branch.endpoints, target, steps=1000)
                assert eval_q(branch, target) == pytest.approx(oracle, rel=1e-13)
