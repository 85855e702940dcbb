"""Slow reference implementations that the optimized lattice code is
tested against: classical Gram-Schmidt, an LLL that recomputes it after
every swap, the incremental LLL one basis at a time, Babai nearest-plane on
top of them, Klein's sampler as a loop of its own, exact ML decoding by a
search of the whole M^n grid, and the rank of an integer matrix by
elimination over the rationals; and the test-only checks built on the
library: the LLL conditions, Babai's decoder for one target, and SVP.
"""

import math
from fractions import Fraction

import numpy as np

from csikey.distributions import sample_discrete_gaussian_int
from csikey.errors import (DegenerateBasisError, DimensionGuardError,
                           NumericalError)
from csikey.lattice import (DEFAULT_DELTA, ENUM_DIM_LIMIT, LatticeBasis,
                            ReductionResult, _search, lll_reduce,
                            nearest_plane)
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
        zi = sample_discrete_gaussian_int(wi, ci, rng)
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


def lll_per_basis(b: LatticeBasis) -> ReductionResult:
    """The incremental LLL on one basis, as lattice.lll_reduce ran before
    it reduced stacks in lockstep: a float working matrix [B; I], the
    Gram-Schmidt record updated in place at each swap (Cohen GTM 138
    Alg. 2.6.3), the norms scaled by a power of two."""
    n = b.rank
    work = np.vstack([b.matrix, np.eye(n)])
    _, mu, norms2 = b.gso
    mu, norms2 = mu.copy(), np.ldexp(norms2, -np.frexp(norms2.max())[1])
    swaps = 0
    k = 1
    while k < n:
        big = (np.abs(mu[k, :k]) > 0.5).nonzero()[0]
        while big.size:
            j = big[-1]
            q = round(mu[k, j])
            work[:, k] -= q * work[:, j]
            mu[k, : j + 1] -= q * mu[j, : j + 1]
            big = (np.abs(mu[k, :j]) > 0.5).nonzero()[0]
        m = mu[k, k - 1]
        if norms2[k] >= (DEFAULT_DELTA - m**2) * norms2[k - 1]:
            k += 1
            continue
        pair = slice(k - 1, k + 1)
        work[:, pair] = work[:, pair][:, ::-1]
        mu[pair, : k - 1] = mu[pair, : k - 1][::-1]
        new = norms2[k] + m**2 * norms2[k - 1]
        mu[k, k - 1] = m * norms2[k - 1] / new
        norms2[k] = norms2[k - 1] * norms2[k] / new
        norms2[k - 1] = new
        t = mu[k + 1:, k].copy()
        mu[k + 1:, k] = mu[k + 1:, k - 1] - m * t
        mu[k + 1:, k - 1] = t + mu[k, k - 1] * mu[k + 1:, k]
        swaps += 1
        k = max(k - 1, 1)
    if not np.abs(work[-n:]).max() < 2.0**53:
        raise NumericalError("an LLL transform entry reaches 2^53")
    return ReductionResult(LatticeBasis(work[:-n]), work[-n:].astype(np.int64),
                           swaps, DEFAULT_DELTA)


def is_lll_reduced(b: LatticeBasis, delta: float = DEFAULT_DELTA,
                   tol: float = 1e-9) -> bool:
    """Post-hoc check of size reduction and the Lovasz condition, both
    relative (tol scales |mu| and ||b*_{k-1}||^2), so free of the scale."""
    _, mu, norms2 = b.gso
    n = b.rank
    for i in range(n):
        for j in range(i):
            if abs(mu[i, j]) > 0.5 + tol:
                return False
    for k in range(1, n):
        if norms2[k] < (delta - mu[k, k - 1] ** 2 - tol) * norms2[k - 1]:
            return False
    return True


def babai_nearest_plane(b: LatticeBasis, target: np.ndarray):
    """Babai's nearest-plane decoder.  Returns (lattice point, coefficients)."""
    target = np.asarray(target, dtype=float)
    if target.shape[0] != b.ambient_dim:
        raise ValueError("target dimension does not match the basis")
    points, coeffs = nearest_plane(b, target[None], lambda i, c: np.rint(c))
    return points[0], coeffs[0]


def enumerate_svp(b: LatticeBasis):
    """Exact shortest nonzero vector and lambda_1."""
    if b.rank > ENUM_DIM_LIMIT:
        raise DimensionGuardError(f"exact SVP limited to n <= {ENUM_DIM_LIMIT}")
    red = lll_reduce(b).reduced
    # Search just beyond the shortest reduced column (relative slack).
    radius2 = float(np.min(np.sum(red.matrix**2, axis=0))) * (1 + 1e-9)
    leaves = _search(red, np.zeros(b.ambient_dim), radius2)
    v = red.matrix @ np.array(min(c for c in leaves if any(c[1]))[1])
    return v, float(np.linalg.norm(v))
