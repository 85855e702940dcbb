import numpy as np
import pytest

from csikey.errors import DegenerateBasisError, NumericalError
from csikey.numerics import gram_schmidt, make_rng, pseudo_inverse, svd
from lattice_reference import classical_gram_schmidt


def test_make_rng_reproducible():
    a = make_rng(123).normal(size=100)
    b = make_rng(123).normal(size=100)
    assert np.array_equal(a, b)


def test_svd_reconstruction_and_orthogonality():
    rng = make_rng(0)
    for shape in [(4, 4), (12, 8), (8, 8)]:
        a = rng.normal(size=shape)
        u, sigma, v = svd(a)
        assert u.shape == shape and v.shape == (shape[1], shape[1])
        rebuilt = (u * sigma) @ v.T
        assert np.linalg.norm(rebuilt - a) <= 1e-9 * np.linalg.norm(a)
        for q in (u, v):
            assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-9
        assert np.all(np.diff(sigma) <= 0)


def test_svd_diagonal():
    _, sigma, _ = svd(np.diag([3.0, 2.0]))
    assert np.allclose(sigma, [3.0, 2.0])


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
    with pytest.raises(DegenerateBasisError,
                       match="condition number 1.000e[+]15 exceeds 1e[+]12"):
        pseudo_inverse(a)


def _parts(result):
    return tuple(result) if isinstance(result, tuple) else (result,)


def _per_matrix(fn, stack):
    """The parts of fn's result on each matrix of stack alone, restacked."""
    lead = stack.shape[:-2]
    results = [_parts(fn(a)) for a in stack.reshape(-1, *stack.shape[-2:])]
    return [np.stack(p).reshape(*lead, *p[0].shape) for p in zip(*results)]


@pytest.mark.parametrize("shape", [(40, 4, 4), (2, 16, 16), (65, 8, 4),
                                   (2, 3, 5, 5), (3, 4, 6)])
def test_stacked_calls_match_per_matrix_calls(shape):
    stack = 0.002 * make_rng(5).normal(size=shape)
    tall = shape[-2] >= shape[-1]
    for fn in [svd, pseudo_inverse] + [gram_schmidt] * tall:
        for got, want in zip(_parts(fn(stack)), _per_matrix(fn, stack),
                             strict=True):
            assert np.array_equal(got, want), fn.__name__


def _raises_like_first_bad_slice(fn, stack, bad, exc, match=None):
    """fn on the stack raises what fn on its first bad matrix raises."""
    with pytest.raises(exc, match=match) as alone:
        fn(stack[bad])
    with pytest.raises(exc, match=match) as stacked:
        fn(stack)
    assert str(stacked.value) == str(alone.value)


def test_stack_with_one_bad_matrix_raises_its_error():
    rng = make_rng(6)
    stack = rng.normal(size=(5, 4, 4))
    nonfinite = stack.copy()
    nonfinite[3, 1, 2] = np.nan
    for fn in (svd, gram_schmidt, pseudo_inverse):
        _raises_like_first_bad_slice(fn, nonfinite, 3, NumericalError)
    dependent = stack.copy()
    dependent[2, :, 3] = dependent[2, :, 0] + dependent[2, :, 1]
    dependent[4, :, 1] = dependent[4, :, 0]
    _raises_like_first_bad_slice(gram_schmidt, dependent, 2,
                                 DegenerateBasisError)
    ill = stack.copy()
    ill[1] = np.diag([1.0, 1.0, 1.0, 1e-15])
    ill[3] = np.diag([1.0, 1.0, 1.0, 0.0])
    _raises_like_first_bad_slice(pseudo_inverse, ill, 1, DegenerateBasisError,
                                 match="condition number")


def test_stack_checks_run_in_turn():
    # Each check covers the whole stack before the next one runs: a
    # non-finite slice raises before an earlier dependent or ill-conditioned
    # one, and the earlier of two slices failing the same check raises.
    stack = make_rng(7).normal(size=(4, 4, 4))
    stack[0, :, 1] = stack[0, :, 0]
    stack[1] = np.diag([1.0, 1.0, 1.0, 0.0])
    stack[3, 2, 2] = np.inf
    for fn in (gram_schmidt, pseudo_inverse):
        with pytest.raises(NumericalError):
            fn(stack)
    stack[3, 2, 2] = 0.0
    _raises_like_first_bad_slice(gram_schmidt, stack, 0, DegenerateBasisError)
    _raises_like_first_bad_slice(pseudo_inverse, stack, 0, DegenerateBasisError,
                                 match="condition number")
