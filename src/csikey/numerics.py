"""Dense real linear algebra and seeded randomness used everywhere else.

Matrices are plain float64 numpy arrays.  Basis vectors are stored as
matrix *columns* throughout the package.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateBasisError, IllConditionedError, NumericalError

COND_LIMIT = 1e12


class SvdTriple(NamedTuple):
    """A = U @ diag(sigma) @ V.T with sigma non-increasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def sigma_min(self) -> float:
        return float(self.sigma[-1])


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Reproducible generator: identical (seed, stream) gives identical draws.

    Streams with distinct ids are statistically independent, which is what
    Monte Carlo workers use.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


def svd(a: np.ndarray) -> SvdTriple:
    """Thin SVD: U is m x min(m, n), sigma non-increasing (numpy convention)."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError("svd input contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge on {a.shape} matrix") from exc
    return SvdTriple(U=u, sigma=s, V=vh.T)


def gram_schmidt(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt data of the columns of b, from a Householder QR.

    Returns (bstar, mu) with b_i = bstar_i + sum_{j<i} mu[i, j] * bstar_j.
    mu is lower triangular with unit diagonal.  A column counts as
    linearly dependent when its part orthogonal to the earlier columns is
    below 1e-13 of its own norm, so the test does not depend on the scale.
    """
    b = np.asarray(b, dtype=float)
    m, n = b.shape
    if not np.all(np.isfinite(b)):
        raise NumericalError("gram_schmidt input contains non-finite entries")
    if m < n:
        raise DegenerateBasisError(f"{n} columns in dimension {m} are dependent")
    q, r = np.linalg.qr(b)
    d = np.diag(r)
    dependent = np.flatnonzero(np.abs(d) <= 1e-13 * np.linalg.norm(b, axis=0))
    if dependent.size:
        raise DegenerateBasisError(
            f"column {dependent[0]} is linearly dependent")
    return q * d, (r / d[:, None]).T


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a full-column-rank matrix, from one thin SVD."""
    u, s, v = svd(a)
    if s[-1] == 0 or s[0] / s[-1] > COND_LIMIT:
        raise IllConditionedError(
            f"condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds {COND_LIMIT:.0e}"
        )
    return v @ ((1 / s)[:, None] * u.T)
