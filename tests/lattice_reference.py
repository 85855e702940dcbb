"""Slow reference implementations that the optimized lattice code is
tested against: classical Gram-Schmidt, an LLL that recomputes it after
every swap, Babai nearest-plane on top of them, Klein's sampler as a loop
of its own, exact ML decoding by a search of the whole M^n grid, and the
rank of an integer matrix by elimination over the rationals.
"""

import math
from fractions import Fraction

import numpy as np

from csikey.distributions import sample_discrete_gaussian_int
from csikey.errors import DegenerateBasisError
from csikey.numerics import gram_schmidt


def classical_gram_schmidt(b):
    """Classical Gram-Schmidt on the columns of b (no normalization).

    Returns (bstar, mu) with b_i = bstar_i + sum_{j<i} mu[i, j] * bstar_j.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[1]
    bstar = np.zeros_like(b)
    mu = np.eye(n)
    norms2 = np.zeros(n)
    scale = max(np.linalg.norm(b), 1.0)
    for i in range(n):
        v = b[:, i].copy()
        for j in range(i):
            mu[i, j] = np.dot(b[:, i], bstar[:, j]) / norms2[j]
            v -= mu[i, j] * bstar[:, j]
        norms2[i] = np.dot(v, v)
        if norms2[i] <= (1e-13 * scale) ** 2:
            raise DegenerateBasisError(f"column {i} is linearly dependent")
        bstar[:, i] = v
    return bstar, mu


def lll_recompute(basis, delta=0.99):
    """LLL with the Gram-Schmidt data recomputed after every swap.

    Returns (reduced basis, transform as object-dtype integers, swaps).
    """
    basis = np.asarray(basis, dtype=float).copy()
    n = basis.shape[1]
    u = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                 dtype=object)
    bstar, mu = classical_gram_schmidt(basis)
    norms2 = np.sum(bstar**2, axis=0)
    swaps = 0
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                basis[:, k] -= q * basis[:, j]
                u[:, k] = u[:, k] - q * u[:, j]
                mu[k, : j + 1] -= q * mu[j, : j + 1]
        if norms2[k] >= (delta - mu[k, k - 1] ** 2) * norms2[k - 1]:
            k += 1
        else:
            basis[:, [k - 1, k]] = basis[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            bstar, mu = classical_gram_schmidt(basis)
            norms2 = np.sum(bstar**2, axis=0)
            swaps += 1
            k = max(k - 1, 1)
    return basis, u, swaps


def babai_reference(reduced, u, y, M):
    """Eve's Babai estimate on the reference LLL output (reduced, u)."""
    bstar, _ = classical_gram_schmidt(reduced)
    norms2 = np.sum(bstar**2, axis=0)
    t = np.asarray(y, dtype=float).copy()
    coeffs = np.zeros(reduced.shape[1], dtype=np.int64)
    for i in range(reduced.shape[1] - 1, -1, -1):
        c = round(float(np.dot(t, bstar[:, i]) / norms2[i]))
        coeffs[i] = c
        t -= c * reduced[:, i]
    est = np.array([int(c) for c in u @ coeffs.astype(object)], dtype=np.int64)
    return np.clip(est, 0, M - 1)


def klein_reference(basis, r, rng, size):
    """Klein's sampler centred at 0, with its own Gram-Schmidt data and
    its own randomized nearest-plane loop.  Returns (points, coeffs)."""
    b = np.asarray(basis, dtype=float)
    bstar, _ = gram_schmidt(b)
    m, n = b.shape
    norms2 = np.sum(bstar**2, axis=0)
    t = np.zeros((size, m))
    coeffs = np.zeros((size, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        ci = t @ bstar[:, i] / norms2[i]
        wi = r / math.sqrt(norms2[i])
        zi = sample_discrete_gaussian_int(np.full(size, wi), ci, rng)
        coeffs[:, i] = zi
        t -= np.outer(zi, b[:, i])
    return coeffs @ b.T, coeffs


def grid_ml(g, y, M):
    """argmin over x in [0, M)^n of ||y - g x||, lexicographic ties.

    Evaluates the quadratic form x^T (G^T G) x - 2 (G^T y)^T x over the full
    M^n candidate grid.
    """
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    n = g.shape[1]
    h = g.T @ g
    b = g.T @ y
    vals = np.arange(M, dtype=float)
    score = np.zeros((M,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = M
        xi = vals.reshape(shape)
        score += h[i, i] * xi**2 - 2.0 * b[i] * xi
        for j in range(i + 1, n):
            shape_j = [1] * n
            shape_j[j] = M
            score += 2.0 * h[i, j] * xi * vals.reshape(shape_j)
    return np.array(np.unravel_index(np.argmin(score), score.shape),
                    dtype=np.int64)


def fraction_rank(rows) -> int:
    """Exact rank of a small integer matrix via fraction elimination."""
    a = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    ncols = len(a[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / pr[col]
            a[r] = [x - f * y for x, y in zip(a[r], pr)]
        rank += 1
    return rank
