"""Dense real linear algebra and seeded randomness used everywhere else.

Matrices are plain float64 numpy arrays.  Basis vectors are stored as
matrix *columns* throughout the package.  svd, gram_schmidt,
pseudo_inverse and _matvec also take a stack (..., m, n), slice by slice
bit-equal to per-matrix calls; each check runs over the whole stack in
turn, and the first matrix failing it raises the per-matrix error.
"""

import numpy as np

from .errors import DegenerateBasisError, NumericalError, ParameterError, need_int

RANK_FLOOR = 1e-12  # least sigma_min / sigma_max of a full-rank matrix


def make_rng(seed: int) -> np.random.Generator:
    """Reproducible generator: an identical seed gives identical draws.
    Any integer seed >= 0 is taken, beyond 2^53 too."""
    need_int("seed", seed, 0, np.inf)
    # spawn key (0,) is the one every artifact so far was drawn with
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
    return np.random.default_rng(ss)


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (U, sigma, V) with A = U @ diag(sigma) @ V.T: U is
    m x min(m, n), sigma non-increasing (numpy convention)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError("svd input contains non-finite entries")
    if a.ndim < 2:
        raise NumericalError(f"svd input of shape {a.shape} is not a matrix")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge on {a.shape[-2:]} matrix") from exc
    return u, s, np.swapaxes(vh, -1, -2)


def gram_schmidt(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt data of the columns of b, from a Householder QR.

    Returns (bstar, mu) with b_i = bstar_i + sum_{j<i} mu[i, j] * bstar_j.
    mu is lower triangular with unit diagonal.  A column counts as
    linearly dependent when its part orthogonal to the earlier columns is
    below 1e-13 of its own norm, so the test does not depend on the scale.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 2 or not b.shape[-1]:  # as LatticeBasis
        raise DegenerateBasisError("basis must be a matrix with >= 1 column")
    m, n = b.shape[-2:]
    if not np.all(np.isfinite(b)):
        raise NumericalError("gram_schmidt input contains non-finite entries")
    if m < n:
        raise DegenerateBasisError(f"{n} columns in dimension {m} are dependent")
    q, r = np.linalg.qr(b)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    # hypot sums the column norms without squaring, so they do not overflow
    # near the top of the float range (or underflow near the bottom).
    dependent = np.argwhere(np.abs(d) <= 1e-13 * np.hypot.reduce(b, axis=-2))
    if dependent.size:
        raise DegenerateBasisError(f"column {dependent[0][-1]} is linearly dependent")
    return q * d[..., None, :], np.swapaxes(r / d[..., :, None], -1, -2)


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a full-column-rank matrix, from one thin SVD."""
    u, s, v = svd(a)
    if not s.shape[-1]:
        raise DegenerateBasisError(f"a matrix of shape {np.shape(a)} has rank 0")
    for top, low in s.reshape(-1, s.shape[-1])[:, [0, -1]]:
        if not low > RANK_FLOOR * top:
            raise DegenerateBasisError(f"condition number {top / max(low, 1e-300):.3e} "
                                       f"exceeds {1 / RANK_FLOOR:.0e}")
    return v @ ((1 / s)[..., :, None] * np.swapaxes(u, -1, -2))


def _matvec(a: np.ndarray, x, e=None) -> np.ndarray:
    """a @ x, plus the noise e if given, for each matrix of the stack a and
    vector of the stacks x and e; a stacked matmul, since np.einsum is not
    bit-equal.  Stacks that do not broadcast raise ParameterError."""
    x = np.asarray(x, dtype=float)
    try:
        y = (a @ x[..., None])[..., 0]
    except ValueError:
        raise ParameterError(f"a stack of matrices {a.shape} and one of vectors "
                             f"{x.shape} do not broadcast") from None
    try:
        return y if e is None else y + e
    except ValueError:
        raise ParameterError(f"noise of shape {e.shape} does not broadcast against "
                             f"the channel output {y.shape}") from None
