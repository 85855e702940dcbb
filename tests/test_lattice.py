import math

import numpy as np
import pytest

from csikey.attacks import babai_attack, exact_ml_decode
from csikey.errors import DimensionGuardError, NumericalError
from csikey.lattice import (LatticeBasis, babai_nearest_plane, dual_basis,
                            enumerate_cvp, enumerate_svp, int_det,
                            is_lll_reduced, lattice_bases, lll_reduce,
                            nearest_plane, successive_minima)
from csikey.numerics import make_rng
from csikey.wiretap import (SystemParams, eve_receive, make_instance,
                            random_message, transmit_to_bob)
from lattice_reference import babai_reference, lll_recompute


def _random_int_basis(rng, n, lo=-9, hi=9):
    while True:
        m = rng.integers(lo, hi + 1, size=(n, n))
        if abs(int_det(m.astype(object))) >= 1:
            return LatticeBasis(m.astype(float))


def test_int_det_matches_numpy():
    rng = make_rng(0)
    for _ in range(20):
        m = rng.integers(-9, 10, size=(5, 5))
        assert int_det(m.astype(object)) == round(float(np.linalg.det(m)))


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
        assert int_det(red.transform) in (1, -1)
        assert np.allclose(b.matrix @ red.transform.astype(float),
                           red.reduced.matrix)
        assert is_lll_reduced(red.reduced)


def _attack_params():
    k = 0.002
    return SystemParams(n=16, m_rx=16, M=256,
                        alpha=1.05 * math.sqrt(16) * k**2, k=k)


def _attack_channels(count):
    """Eve's (G, y, M) in the first `count` trials of acceptance 13."""
    p = _attack_params()
    rng = make_rng(1300)
    for _ in range(count):
        inst = make_instance(p, rng)
        x = random_message(p, rng)
        transmit_to_bob(inst, x, p, rng)
        g, y = eve_receive(inst, x, p, rng)
        yield g, y, p.M


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
    for g, y, M in _attack_channels(50):
        red = _assert_matches_reference(g)
        assert np.array_equal(babai_attack(red, y, M).estimate,
                              babai_reference(red.reduced.matrix,
                                              red.transform, y, M))


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
        inst = make_instance(p, rng)
        obs = [eve_receive(inst, random_message(p, rng), p, rng)
               for _ in range(40)]
        targets = np.array([y for _, y in obs])
        red = lll_reduce(LatticeBasis(obs[0][0]))
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
    assert np.allclose(est.values, [1.0, 2.0, 3.0])
    assert est.exact


def test_successive_minima_skewed_matches_known():
    b = LatticeBasis(np.array([[2.0, 1.0], [0.0, 2.0]]))
    est = successive_minima(b)
    assert est.values[0] == pytest.approx(2.0)
    assert est.values[1] == pytest.approx(math.sqrt(5.0))


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
    assert np.allclose(est.values, [2.0 * scale, math.sqrt(5.0) * scale],
                       rtol=1e-12, atol=0)
    rng = make_rng(13)
    g = rng.normal(size=(6, 3))
    y = g @ np.array([3.0, 0.0, 5.0]) + 0.5 * rng.normal(size=6)
    assert np.array_equal(exact_ml_decode(g * scale, y * scale, 8).estimate,
                          exact_ml_decode(g, y, 8).estimate)


def test_dimension_guard():
    with pytest.raises(DimensionGuardError):
        enumerate_svp(LatticeBasis(np.eye(9)))


def test_dual_basis_roundtrip():
    rng = make_rng(4)
    b = _random_int_basis(rng, 4)
    d = dual_basis(b)
    assert np.allclose(d.matrix.T @ b.matrix, np.eye(4), atol=1e-9)
    assert np.allclose(dual_basis(d).matrix, b.matrix, atol=1e-9)

