import itertools
import math

import numpy as np
import pytest

from csikey.attacks import babai_attack, exact_ml_decode
from csikey.errors import DimensionGuardError, NumericalError
from csikey.lattice import (LOCKSTEP_MIN, LatticeBasis, _search, enumerate_cvp,
                            int_rank_det, lattice_bases, lll_reduce,
                            nearest_plane, original_coeffs, successive_minima)
from csikey.numerics import gram_schmidt, make_rng
from csikey.wiretap import (SystemParams, channel_noise, eve_receive,
                            make_instance, random_message)
from lattice_reference import (babai_nearest_plane, babai_reference,
                               enumerate_svp, fraction_rank, is_lll_reduced,
                               lll_per_basis, lll_recompute)


def _random_int_basis(rng, n, lo=-9, hi=9):
    while True:
        m = rng.integers(lo, hi + 1, size=(n, n))
        if abs(int_rank_det(m)[1]) >= 1:
            return LatticeBasis(m.astype(float))


def test_int_det_matches_numpy():
    rng = make_rng(0)
    for _ in range(20):
        m = rng.integers(-9, 10, size=(5, 5))
        assert int_rank_det(m)[1] == round(float(np.linalg.det(m)))


def test_int_rank_det_matches_fractions_and_numpy():
    # Rectangular integer matrices, some rows planted as integer
    # combinations of others: the rank of elimination over the rationals,
    # and numpy's determinant for the square ones.
    rng = make_rng(5)
    for _ in range(300):
        rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
        m = rng.integers(-9, 10, size=(rows, cols))
        for r in rng.choice(rows, size=int(rng.integers(0, rows)), replace=False):
            m[r] = rng.integers(-3, 4, size=rows) @ m
        rank, det = int_rank_det(m)
        assert rank == fraction_rank(m.tolist())
        if rows == cols:
            assert det == round(float(np.linalg.det(m)))
        else:
            assert det == 0


def test_lll_identity_fixed_point():
    red = lll_reduce(LatticeBasis(np.eye(4)))
    assert np.allclose(red.reduced.matrix, np.eye(4))
    assert red.swaps == 0


def test_lll_unimodular_and_conditions():
    rng = make_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        b = _random_int_basis(rng, n)
        red = lll_reduce(b)
        assert int_rank_det(red.transform)[1] in (1, -1)
        assert np.allclose(b.matrix @ red.transform.astype(float),
                           red.reduced.matrix)
        assert is_lll_reduced(red.reduced)


def _attack_params(n=16):
    k = 0.002
    return SystemParams(n=n, m_rx=n, M=256,
                        alpha=1.05 * math.sqrt(n) * k**2, k=k)


def _attack_channels(count):
    """Eve's (G, y, M) in the first `count` trials of acceptance 13."""
    p = _attack_params()
    rng = make_rng(1300)
    for _ in range(count):
        ch = make_instance(p, rng, 1, eve=True)
        x = random_message(p, rng)
        channel_noise(p, rng, p.m_rx)  # Bob's noise
        yield ch.G[0], eve_receive(ch, x, channel_noise(p, rng, p.m_rx))[0], p.M


def _assert_matches_reference(g):
    red = lll_reduce(LatticeBasis(g))
    reduced, u, swaps = lll_recompute(g)
    assert red.swaps == swaps
    assert np.array_equal(red.transform, u)
    assert np.array_equal(red.reduced.matrix, reduced)
    return red


def test_lll_matches_reference_on_attack_channels():
    # The incremental LLL takes every decision the recompute-per-swap LLL
    # takes, so the outputs and Eve's Babai estimates are identical.
    reds, ys = [], []
    for g, y, M in _attack_channels(50):
        reds.append(_assert_matches_reference(g))
        ys.append(y)
    est = babai_attack(reds, np.array(ys), M).estimate
    for row, red, y in zip(est, reds, ys, strict=True):
        assert np.array_equal(row, babai_reference(red.reduced.matrix,
                                                   red.transform, y, M))


def _assert_stack_matches_per_basis_lll(stack):
    # Every basis of the stack, reduced with the rest, gets the reduced
    # basis, transform and swap count that the per-basis LLL gives it alone.
    for basis, g in zip(lattice_bases(stack), stack, strict=True):
        got, want = lll_reduce(basis), lll_per_basis(LatticeBasis(g))
        assert got.swaps == want.swaps
        assert np.array_equal(got.transform, want.transform)
        assert np.array_equal(got.reduced.matrix, want.reduced.matrix)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("trials", [1, 2, LOCKSTEP_MIN - 1, LOCKSTEP_MIN,
                                    LOCKSTEP_MIN + 1, 40, 64])
def test_stacked_lll_matches_per_basis_lll(trials, n):
    # Below LOCKSTEP_MIN the stack goes straight to the per-basis loop; from
    # it on, the stack starts in lockstep and its stragglers finish there.
    p = _attack_params(n)
    rng = make_rng(1000 * n + trials)
    _assert_stack_matches_per_basis_lll(
        make_instance(p, rng, trials, eve=True).G)


def test_stacked_lll_matches_per_basis_lll_across_scales():
    # Each basis of one lockstep stack keeps its own power-of-two scaling.
    rng = make_rng(14)
    scales = 10.0 ** np.linspace(-100, 150, 2 * LOCKSTEP_MIN + 1)
    _assert_stack_matches_per_basis_lll(
        scales[:, None, None] * rng.normal(size=(scales.size, 6, 6)))


@pytest.mark.parametrize("trials", [2, LOCKSTEP_MIN + 1])
def test_stacked_lll_transform_beyond_2_53_raises(trials):
    # One basis of the stack takes 1e17 copies of b_1 (see below).
    stack = np.stack([np.array([[1.0, 0.3], [0.0, 1.0]])] * trials)
    stack[-1] = [[1.0, 1e17], [0.0, 1e5]]
    with pytest.raises(NumericalError):
        lll_reduce(lattice_bases(stack)[0])


def test_lll_transform_is_int64():
    for g, _, _ in _attack_channels(3):
        assert lll_reduce(LatticeBasis(g)).transform.dtype == np.int64


def test_lll_transform_beyond_2_53_raises():
    # Size reduction takes 1e17 copies of b_1: beyond exact float integers.
    # (With 1 for 1e5, Gram-Schmidt calls b_2 dependent: 1e-17 < 1e-13.)
    with pytest.raises(NumericalError):
        lll_reduce(LatticeBasis(np.array([[1.0, 1e17], [0.0, 1e5]])))


def test_original_coeffs_exact_or_raise():
    t = np.array([[2**52, 1], [0, 1]])
    assert original_coeffs(t, [2**8, 3]).tolist() == [2**60 + 3, 3]
    with pytest.raises(NumericalError):
        original_coeffs(t, [2**12, 0])
    stack = np.stack([np.eye(2, dtype=np.int64), t])
    got = original_coeffs(stack, [[5, -7], [2**8, 3]])
    assert got.tolist() == [[5, -7], [2**60 + 3, 3]]


ATTACK_CHUNKS = {  # the ber chunks of the attack-n4-ml and attack-n16 workloads
    "n4-T40": (SystemParams(n=4, m_rx=4, M=16, alpha=8.4e-06, k=0.002), 40),
    "n16-T2": (SystemParams(n=16, m_rx=16, M=256, alpha=1.68e-05, k=0.002), 2),
}


@pytest.mark.parametrize("p,t", ATTACK_CHUNKS.values(), ids=ATTACK_CHUNKS)
def test_stacked_map_back_matches_per_basis_products(p, t):
    # Babai's coefficients of 200 chunks map back through the stacked
    # transforms to each basis's own int64 product transform @ z; one slice
    # past the 2^62 bound on the partial sums raises for the whole stack.
    rng = make_rng(30)
    for _ in range(200):
        ch = make_instance(p, rng, t, eve=True)
        reds = [lll_reduce(b) for b in lattice_bases(ch.G)]
        x = rng.integers(0, p.M, size=(t, p.n))
        y = eve_receive(ch, x, channel_noise(p, rng, (t, p.m_rx)))
        stack = LatticeBasis(np.stack([r.reduced.matrix for r in reds]))
        _, z = nearest_plane(stack, y[:, None], lambda i, c: np.rint(c))
        got = original_coeffs(np.stack([r.transform for r in reds]), z[:, 0])
        want = [r.transform @ zt for r, zt in zip(reds, z[:, 0], strict=True)]
        assert got.dtype == np.int64 and np.array_equal(got, want)
    z[t // 2, 0] = 2**61  # a sum of n >= 2 entries of 2^61 reaches 2^62
    with pytest.raises(NumericalError):
        original_coeffs(np.stack([r.transform for r in reds]), z[:, 0])


def test_nearest_plane_coefficient_beyond_2_53_raises():
    with pytest.raises(NumericalError):
        babai_nearest_plane(LatticeBasis(np.eye(2)), np.array([1e17, 0.0]))


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("trials", [1, 2, 64])
def test_stacked_nearest_plane_matches_babai_per_basis(trials, n):
    # Entries in [-999, 999] (see test_lll_matches_reference_on_integer_bases);
    # each slice's walk gives the single-basis decoder's point and coefficients.
    rng = make_rng(100 * n + trials)
    stack = np.array([_random_int_basis(rng, n, lo=-999, hi=999).matrix
                      for _ in range(trials)])
    coeffs = rng.integers(-50, 51, size=(trials, n, 1)).astype(float)
    targets = (stack @ coeffs)[..., 0] + 300 * rng.normal(size=(trials, n))
    points, got = nearest_plane(LatticeBasis(stack), targets[:, None],
                                lambda i, c: np.rint(c))
    assert points.shape == (trials, 1, n) and got.shape == (trials, 1, n)
    for b, t, p, z in zip(stack, targets, points[:, 0], got[:, 0], strict=True):
        want_p, want_z = babai_nearest_plane(LatticeBasis(b), t)
        assert np.array_equal(z, want_z) and np.array_equal(p, want_p)


def test_stacked_nearest_plane_raises_if_one_slice_reaches_2_53():
    targets = np.zeros((3, 1, 2))
    targets[1, 0, 0] = 1e17
    with pytest.raises(NumericalError):
        nearest_plane(LatticeBasis(np.stack([np.eye(2)] * 3)), targets,
                      lambda i, c: np.rint(c))


def test_lattice_bases_match_per_matrix_records():
    # The records of a stack are those each basis computes on its own.
    stack = np.array([g for g, _, _ in _attack_channels(5)])
    for basis, g in zip(lattice_bases(stack), stack, strict=True):
        assert np.array_equal(basis.matrix, g)
        for got, want in zip(basis.gso, LatticeBasis(g).gso, strict=True):
            assert np.array_equal(got, want)


def test_nearest_plane_rounding_matches_babai_reference():
    # 5 reduced acceptance-13 channels, 40 of Eve's observations each: the
    # batched rounding walk gives the scalar reference's estimate and the
    # single-target decoder's coefficients, row by row.
    p = _attack_params()
    rng = make_rng(1301)
    for _ in range(5):
        ch = make_instance(p, rng, 1, eve=True)
        targets = np.array([eve_receive(ch, random_message(p, rng),
                                        channel_noise(p, rng, p.m_rx))[0]
                            for _ in range(40)])
        red = lll_reduce(LatticeBasis(ch.G[0]))
        _, coeffs = nearest_plane(red.reduced, targets,
                                  lambda i, c: np.rint(c))
        for row, y in zip(coeffs, targets):
            assert np.array_equal(row, babai_nearest_plane(red.reduced, y)[1])
            est = np.clip([int(c) for c in red.transform @ row.astype(object)],
                          0, p.M - 1)
            assert np.array_equal(est, babai_reference(
                red.reduced.matrix, red.transform, y, p.M))


def test_lll_matches_reference_on_integer_bases():
    # Wide entries: with entries in [-9, 9] some bases meet a mu that is
    # exactly a half-integer, which each float Gram-Schmidt rounds to its
    # own side; both results are LLL-reduced, as the test above checks.
    rng = make_rng(11)
    for n in range(2, 9):
        for _ in range(10):
            _assert_matches_reference(
                _random_int_basis(rng, n, lo=-999, hi=999).matrix)


@pytest.mark.parametrize("scale", [1e-100, 1e-14, 1e8, 1e80])
def test_lll_does_not_depend_on_scale(scale):
    rng = make_rng(12)
    for _ in range(5):
        b = rng.normal(size=(6, 6))
        base = lll_reduce(LatticeBasis(b))
        red = lll_reduce(LatticeBasis(scale * b))
        assert base.swaps > 0 and red.swaps == base.swaps
        assert np.array_equal(red.transform, base.transform)


def test_gso_rejects_subnormal_squared_norms():
    # At 1e-170 each ||b*_i||^2 is about 1e-340, below the normal floats.
    with pytest.raises(NumericalError):
        LatticeBasis(1e-170 * make_rng(12).normal(size=(4, 4))).gso


def test_gso_rejects_overflowing_squared_norms():
    # At 1e170 Gram-Schmidt itself succeeds (its dependence test takes the
    # column norms by hypot), but each ||b*_i||^2, about 1e340, overflows.
    b = make_rng(12).normal(size=(4, 4))
    assert np.allclose(gram_schmidt(2.0**560 * b)[0],
                       2.0**560 * gram_schmidt(b)[0], rtol=1e-12, atol=0)
    with pytest.raises(NumericalError):
        LatticeBasis(1e170 * b).gso


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-14])
def test_is_lll_reduced_does_not_depend_on_scale(scale):
    b = LatticeBasis(scale * np.diag([1.0, 0.1]))  # fails the Lovasz test
    assert not is_lll_reduced(b)
    assert is_lll_reduced(lll_reduce(b).reduced)


def test_lll_classic_2d():
    # Strongly skewed 2-D basis reduces to vectors of the minimal norms.
    b = LatticeBasis(np.array([[1.0, 99.0], [0.0, 1.0]]))
    red = lll_reduce(b)
    norms = np.linalg.norm(red.reduced.matrix, axis=0)
    assert np.max(norms) <= math.sqrt(2.0) + 1e-9


def test_babai_exact_on_lattice_points():
    rng = make_rng(2)
    b = _random_int_basis(rng, 4)
    coeffs = rng.integers(-5, 6, size=4)
    point, got = babai_nearest_plane(b, b.matrix @ coeffs.astype(float))
    assert np.array_equal(got, coeffs)
    assert np.allclose(point, b.matrix @ coeffs.astype(float))


def _box_search_case(rng, n):
    """A normal basis, a box [0, M - 1]^n with M <= 5, a target near it, and
    brute force: {z: ||b z - target||^2} over the box."""
    b = LatticeBasis(rng.normal(size=(n, n)))
    M = int(rng.integers(2, 6))
    target = b.matrix @ rng.uniform(-0.5, M - 0.5, size=n)
    grid = itertools.product(range(M), repeat=n)
    brute = {z: float(np.sum((b.matrix @ z - target) ** 2)) for z in grid}
    return b, M, target, brute


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_leaves_are_the_box_points_within_the_radius(n):
    rng = make_rng(50 + n)
    for _ in range(10):
        b, M, target, brute = _box_search_case(rng, n)
        # A radius halfway between the two middle distances, so no point of
        # the box lies within rounding of it.
        d = sorted(brute.values())
        radius2 = (d[len(d) // 2 - 1] + d[len(d) // 2]) / 2
        leaves = list(_search(b, target, radius2, (0, M - 1)))
        zs = [z for _, z in leaves]
        assert len(set(zs)) == len(zs)
        assert set(zs) == {z for z, d2 in brute.items() if d2 <= radius2}
        for d2, z in leaves:
            assert d2 == pytest.approx(brute[z], rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_with_shrink_yields_non_increasing_distances(n):
    rng = make_rng(60 + n)
    for _ in range(10):
        b, M, target, brute = _box_search_case(rng, n)
        leaves = list(_search(b, target, math.inf, (0, M - 1), shrink=True))
        d2s = [d2 for d2, _ in leaves]
        assert all(x >= y for x, y in zip(d2s, d2s[1:]))
        assert leaves[-1][1] == min(brute, key=brute.get)


def test_enumerate_svp_z2_skewed():
    b = LatticeBasis(np.array([[1.0, 7.0], [0.0, 1.0]]))
    vec, lam1 = enumerate_svp(b)
    assert lam1 == pytest.approx(1.0)
    assert np.allclose(np.abs(vec), [1.0, 0.0])


def test_enumerate_cvp_brute_force():
    rng = make_rng(3)
    for _ in range(10):
        b = _random_int_basis(rng, 3, lo=-4, hi=4)
        target = rng.normal(size=3) * 3.0
        point, coeffs = enumerate_cvp(b, target)
        grid = np.array(np.meshgrid(*[np.arange(-12, 13)] * 3)).reshape(3, -1)
        pts = b.matrix @ grid
        best = np.min(np.sum((pts - target[:, None]) ** 2, axis=0))
        assert np.sum((point - target) ** 2) == pytest.approx(best, abs=1e-6)
        assert np.allclose(b.matrix @ coeffs.astype(float), point)


def test_enumerate_cvp_tie_lexicographic():
    # Target equidistant from 0 and 1 on Z^1: coefficient 0 wins the tie.
    _, coeffs = enumerate_cvp(LatticeBasis(np.eye(1)), np.array([0.5]))
    assert coeffs[0] == 0


def test_successive_minima_z_family():
    est = successive_minima(LatticeBasis(np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(est, [1.0, 2.0, 3.0])


def test_successive_minima_above_enumeration_limit_are_lll_bounds():
    # Above n = 8 the minima are the sorted column norms of the LLL-reduced
    # basis: exact for an orthogonal lattice, and at least 1 on Z^10.
    est = successive_minima(LatticeBasis(np.diag(np.arange(10.0, 0.0, -1.0))))
    assert np.allclose(est, np.arange(1.0, 11.0))
    rng = make_rng(31)
    # Unit upper-triangular integer columns: another basis of Z^10.
    b = LatticeBasis(np.triu(rng.integers(-3, 4, size=(10, 10)), 1) + np.eye(10))
    est = successive_minima(b)
    want = np.sort(np.linalg.norm(lll_reduce(b).reduced.matrix, axis=0))
    assert np.array_equal(est, want)
    assert np.all(est >= 1.0 - 1e-12)


def test_successive_minima_skewed_matches_known():
    b = LatticeBasis(np.array([[2.0, 1.0], [0.0, 2.0]]))
    est = successive_minima(b)
    assert est[0] == pytest.approx(2.0)
    assert est[1] == pytest.approx(math.sqrt(5.0))


@pytest.mark.parametrize("scale", [1e8, 1.0, 1e-9, 1e-10, 1e-12])
def test_enumeration_does_not_depend_on_scale(scale):
    _, coeffs = enumerate_cvp(LatticeBasis(np.eye(2) * scale),
                              np.array([0.9, 0.1]) * scale)
    assert np.array_equal(coeffs, [1, 0])
    skewed = LatticeBasis(np.array([[2.0, 1.0], [0.0, 2.0]]) * scale)
    vec, lam1 = enumerate_svp(skewed)
    assert lam1 == pytest.approx(2.0 * scale)
    assert np.allclose(np.abs(vec), [2.0 * scale, 0.0], rtol=1e-12, atol=0)
    est = successive_minima(skewed)
    assert np.allclose(est, [2.0 * scale, math.sqrt(5.0) * scale],
                       rtol=1e-12, atol=0)
    rng = make_rng(13)
    g = rng.normal(size=(6, 3))
    y = g @ np.array([3.0, 0.0, 5.0]) + 0.5 * rng.normal(size=6)
    assert np.array_equal(exact_ml_decode(g * scale, y * scale, 8).estimate,
                          exact_ml_decode(g, y, 8).estimate)


def test_dimension_guard():
    with pytest.raises(DimensionGuardError):
        enumerate_svp(LatticeBasis(np.eye(9)))

