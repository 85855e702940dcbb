"""Lattice core: basis handling, LLL reduction, Babai nearest-plane,
exact enumeration oracles at small dimension, dual bases, and small-n
decision/search problems.

Basis vectors are matrix columns.  The exact enumeration routines are
Fincke-Pohst style searches and are guarded to n <= 8 unless overridden.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateBasisError, DimensionGuardError
from .numerics import gram_schmidt, pseudo_inverse

ENUM_DIM_LIMIT = 8
DEFAULT_DELTA = 0.99


@dataclass
class LatticeBasis:
    """Full-column-rank basis; Gram-Schmidt data computed lazily."""

    matrix: np.ndarray
    _gso: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise DegenerateBasisError("basis must be a 2-D matrix with >= 1 column")

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]

    @property
    def gso(self):
        if self._gso is None:
            self._gso = gram_schmidt(self.matrix)
        return self._gso

    def to_json(self):
        return {"columns": self.matrix.T.tolist()}

    @classmethod
    def from_json(cls, doc):
        return cls(np.asarray(doc["columns"], dtype=float).T)


@dataclass
class ReductionResult:
    reduced: LatticeBasis
    transform: np.ndarray  # integer unimodular, object dtype (exact)
    swaps: int
    delta: float


@dataclass
class MinimaEstimate:
    values: np.ndarray  # lambda_1 .. lambda_j
    vectors: np.ndarray  # columns, linearly independent realizers (if exact)
    exact: bool


def int_det(m) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def lll_reduce(b: LatticeBasis, delta: float = DEFAULT_DELTA) -> ReductionResult:
    """LLL reduction of the basis columns with Lovasz parameter delta.

    The Gram-Schmidt data is computed once and updated at each swap.  The
    unimodular transform is tracked in exact integer arithmetic, so
    reduced = b.matrix @ transform holds exactly for integer inputs.
    """
    if not 0.25 < delta < 1:
        raise ValueError(f"delta must lie in (0.25, 1), got {delta}")
    basis = b.matrix.astype(float)
    n = basis.shape[1]
    u = np.eye(n, dtype=object)
    bstar, mu = gram_schmidt(basis)
    norms2 = np.sum(bstar**2, axis=0)
    swaps = 0
    k = 1
    while k < n:
        # Size-reduce only where |mu| > 1/2: the entries that round to non-zero.
        big = (np.abs(mu[k, :k]) > 0.5).nonzero()[0]
        while big.size:
            j = big[-1]
            q = round(mu[k, j])
            basis[:, k] -= q * basis[:, j]
            u[:, k] = u[:, k] - q * u[:, j]
            mu[k, : j + 1] -= q * mu[j, : j + 1]
            big = (np.abs(mu[k, :j]) > 0.5).nonzero()[0]
        m = mu[k, k - 1]
        if norms2[k] >= (delta - m**2) * norms2[k - 1]:
            k += 1
            continue
        # Swap b_{k-1}, b_k; update the GSO in place (Cohen GTM 138 Alg. 2.6.3).
        pair = slice(k - 1, k + 1)
        basis[:, pair] = basis[:, pair][:, ::-1]
        u[:, pair] = u[:, pair][:, ::-1]
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
    return ReductionResult(LatticeBasis(basis), u, swaps, delta)


def is_lll_reduced(b: LatticeBasis, delta: float = DEFAULT_DELTA,
                   tol: float = 1e-9) -> bool:
    """Post-hoc check of size reduction and the Lovasz condition, both
    relative (tol scales |mu| and ||b*_{k-1}||^2), so free of the scale."""
    bstar, mu = b.gso
    norms2 = np.sum(bstar**2, axis=0)
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
    bstar, _ = b.gso
    norms2 = np.sum(bstar**2, axis=0)
    t = target.copy()
    n = b.rank
    coeffs = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        c = round(float(np.dot(t, bstar[:, i]) / norms2[i]))
        coeffs[i] = c
        t -= c * b.matrix[:, i]
    return b.matrix @ coeffs, coeffs


def _check_dim(b: LatticeBasis, override: bool):
    if b.rank > ENUM_DIM_LIMIT and not override:
        raise DimensionGuardError(
            f"exact enumeration limited to n <= {ENUM_DIM_LIMIT} "
            f"(got {b.rank}); pass override=True to force"
        )


def _enumerate_within(b: LatticeBasis, target: np.ndarray, radius: float):
    """Yield (coeffs, dist2) for all lattice points within radius of target.

    Depth-first search over coefficients using the Gram-Schmidt
    decomposition (Fincke-Pohst).
    """
    bstar, mu = b.gso
    norms2 = np.sum(bstar**2, axis=0)
    n = b.rank
    # Target coordinates in the GSO frame.
    tcoord = np.array([np.dot(target, bstar[:, i]) / norms2[i] for i in range(n)])
    r2 = radius * radius
    coeffs = np.zeros(n, dtype=np.int64)

    def rec(i, remaining, shift):
        # shift[j] accumulates mu-contributions of already-fixed coefficients.
        if i < 0:
            yield coeffs.copy(), r2 - remaining + 0.0
            return
        center = tcoord[i] - shift[i]
        half = math.sqrt(max(remaining, 0.0) / norms2[i])
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for z in range(lo, hi + 1):
            d = (z - center) ** 2 * norms2[i]
            if d > remaining + 1e-12:
                continue
            coeffs[i] = z
            new_shift = shift.copy()
            if i:
                new_shift[:i] += z * mu[i, :i]
            yield from rec(i - 1, remaining - d, new_shift)

    yield from rec(n - 1, r2, np.zeros(n))


def enumerate_cvp(b: LatticeBasis, target: np.ndarray, override: bool = False):
    """Exact closest lattice point; ties broken by lexicographically
    smallest coefficient vector."""
    _check_dim(b, override)
    target = np.asarray(target, dtype=float)
    red = lll_reduce(b)
    point0, c0 = babai_nearest_plane(red.reduced, target)
    best_d2 = float(np.sum((target - point0) ** 2))
    best = (best_d2, tuple(c0.tolist()))
    radius = math.sqrt(best_d2) + 1e-9
    for coeffs, _ in _enumerate_within(red.reduced, target, radius):
        point = red.reduced.matrix @ coeffs
        d2 = float(np.sum((target - point) ** 2))
        key = (d2, tuple(coeffs.tolist()))
        if d2 < best[0] - 1e-9 or (abs(d2 - best[0]) <= 1e-9 and key[1] < best[1]):
            best = (d2, key[1])
    coeffs_red = np.array(best[1], dtype=object)
    # Map back through the unimodular transform to original-basis coefficients.
    coeffs_orig = red.transform @ coeffs_red
    point = b.matrix @ coeffs_orig.astype(float)
    return point, np.array([int(c) for c in coeffs_orig], dtype=np.int64)


def enumerate_svp(b: LatticeBasis, override: bool = False):
    """Exact shortest nonzero vector and lambda_1."""
    _check_dim(b, override)
    red = lll_reduce(b).reduced
    norms = np.linalg.norm(red.matrix, axis=0)
    best_norm2 = float(np.min(norms) ** 2)
    best_coeffs = None
    radius = math.sqrt(best_norm2) + 1e-9
    origin = np.zeros(b.ambient_dim)
    for coeffs, _ in _enumerate_within(red, origin, radius):
        if not np.any(coeffs):
            continue
        v = red.matrix @ coeffs
        d2 = float(np.dot(v, v))
        if d2 < best_norm2 - 1e-12:
            best_norm2 = d2
            best_coeffs = coeffs.copy()
    if best_coeffs is None:
        best_coeffs = np.zeros(b.rank, dtype=np.int64)
        best_coeffs[int(np.argmin(norms))] = 1
    v = red.matrix @ best_coeffs
    return v, float(np.linalg.norm(v))


def successive_minima(b: LatticeBasis, override: bool = False) -> MinimaEstimate:
    """lambda_1..lambda_n, exact by enumeration for n <= 8."""
    n = b.rank
    if n > ENUM_DIM_LIMIT and not override:
        # Upper bounds from an LLL-reduced basis; not exact.
        red = lll_reduce(b).reduced
        norms = np.sort(np.linalg.norm(red.matrix, axis=0))
        return MinimaEstimate(norms, red.matrix, exact=False)
    red = lll_reduce(b).reduced
    radius = float(np.max(np.linalg.norm(red.matrix, axis=0))) + 1e-9
    origin = np.zeros(b.ambient_dim)
    cands = []
    for coeffs, _ in _enumerate_within(red, origin, radius):
        if not np.any(coeffs):
            continue
        v = red.matrix @ coeffs
        cands.append((float(np.dot(v, v)), tuple(coeffs.tolist())))
    cands.sort()
    chosen_coeffs = []
    values = []
    vecs = []
    for d2, coeffs in cands:
        trial = chosen_coeffs + [coeffs]
        if _int_rank(trial) == len(trial):
            chosen_coeffs.append(coeffs)
            values.append(math.sqrt(d2))
            vecs.append(red.matrix @ np.array(coeffs))
            if len(chosen_coeffs) == n:
                break
    return MinimaEstimate(np.array(values), np.array(vecs).T, exact=True)


def _int_rank(rows) -> int:
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


def dual_basis(b: LatticeBasis) -> LatticeBasis:
    """Dual lattice basis B (B^T B)^{-1} (equals (B^T)^{-1} for square B)."""
    return LatticeBasis(pseudo_inverse(b.matrix.T))


def sivp_solve_small(b: LatticeBasis, gamma: float = 1.0) -> np.ndarray:
    """n linearly independent vectors of length <= gamma * lambda_n (n <= 6)."""
    if b.rank > 6:
        raise DimensionGuardError("sivp_solve_small limited to n <= 6")
    est = successive_minima(b)
    if np.max(est.values) > gamma * est.values[-1] + 1e-9:
        raise DimensionGuardError("enumeration failed the gamma bound")
    return est.vectors
