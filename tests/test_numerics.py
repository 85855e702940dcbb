import numpy as np
import pytest

from csikey.errors import (DegenerateBasisError, IllConditionedError,
                           NumericalError)
from csikey.numerics import gram_schmidt, make_rng, pseudo_inverse, svd
from lattice_reference import classical_gram_schmidt


def test_make_rng_reproducible():
    a = make_rng(123, stream=4).normal(size=100)
    b = make_rng(123, stream=4).normal(size=100)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(123, stream=0).normal(size=100)
    b = make_rng(123, stream=1).normal(size=100)
    assert not np.array_equal(a, b)


def test_svd_reconstruction_and_orthogonality():
    rng = make_rng(0)
    for shape in [(4, 4), (12, 8), (8, 8)]:
        a = rng.normal(size=shape)
        tri = svd(a)
        assert tri.U.shape == shape and tri.V.shape == (shape[1], shape[1])
        rebuilt = (tri.U * tri.sigma) @ tri.V.T
        assert np.linalg.norm(rebuilt - a) <= 1e-9 * np.linalg.norm(a)
        for q in (tri.U, tri.V):
            assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-9
        assert np.all(np.diff(tri.sigma) <= 0)
        assert tri.sigma_min == tri.sigma[-1]


def test_svd_diagonal():
    tri = svd(np.diag([3.0, 2.0]))
    assert np.allclose(tri.sigma, [3.0, 2.0])


def test_gram_schmidt_identity_like():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    bstar, mu = gram_schmidt(b)
    assert np.allclose(bstar, np.eye(2))
    assert mu[1, 0] == pytest.approx(1.0)
    assert np.allclose(np.diag(mu), 1.0)


def test_gram_schmidt_volume_identity():
    rng = make_rng(1)
    b = rng.normal(size=(5, 5))
    bstar, _ = gram_schmidt(b)
    vol = np.prod(np.linalg.norm(bstar, axis=0))
    assert vol == pytest.approx(abs(np.linalg.det(b)), rel=1e-9)


def test_gram_schmidt_matches_classical_reference():
    rng = make_rng(3)
    for shape in [(2, 2), (5, 5), (16, 16), (12, 8)]:
        b = rng.normal(size=shape)
        bstar, mu = gram_schmidt(b)
        ref_bstar, ref_mu = classical_gram_schmidt(b)
        assert np.allclose(bstar, ref_bstar, rtol=0, atol=1e-12)
        assert np.allclose(mu, ref_mu, rtol=0, atol=1e-12)
        assert np.array_equal(np.triu(mu, 1), np.zeros_like(mu))


@pytest.mark.parametrize("scale", [1e-14, 1e8])
def test_gram_schmidt_does_not_depend_on_scale(scale):
    b = make_rng(4).normal(size=(6, 6))
    bstar, mu = gram_schmidt(b)
    scaled_bstar, scaled_mu = gram_schmidt(scale * b)
    assert np.allclose(scaled_mu, mu, rtol=0, atol=1e-12)
    assert np.allclose(scaled_bstar, scale * bstar, rtol=1e-12, atol=0)


def test_gram_schmidt_degenerate():
    b = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DegenerateBasisError):
        gram_schmidt(b)


def test_pseudo_inverse():
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))
    assert np.allclose(pseudo_inverse(np.diag([2.0, 4.0])),
                       np.diag([0.5, 0.25]))
    rng = make_rng(2)
    a = rng.normal(size=(12, 8))
    assert np.max(np.abs(pseudo_inverse(a) @ a - np.eye(8))) <= 1e-8
    # One thin SVD gives numpy's pinv bit for bit.
    for shape in [(1, 1), (5, 3), (4, 6), (8, 8), (12, 8), (128, 64)]:
        for scale in (1e-3, 1.0, 1e5):
            a = scale * rng.normal(size=shape)
            assert np.array_equal(pseudo_inverse(a), np.linalg.pinv(a))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError):
            pseudo_inverse(np.array([[1.0, bad], [0.0, 1.0]]))


def test_pseudo_inverse_ill_conditioned():
    a = np.diag([1.0, 1e-15])
    with pytest.raises(IllConditionedError):
        pseudo_inverse(a)
