"""Lattice core: basis handling, LLL reduction, the nearest-plane walk,
exact enumeration oracles at small dimension, and dual bases.

Basis vectors are matrix columns; every routine reads one Gram-Schmidt
record per basis (LatticeBasis.gso).  Babai's decoder and Klein's sampler
are one nearest-plane walk.  Exact CVP, SVP, successive minima and
box-constrained closest points are one Schnorr-Euchner enumeration
(Schnorr-Euchner 1994; Agrell-Eriksson-Vardy-Zeger 2002), guarded to n <= 8.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasisError, DimensionGuardError, NumericalError
from .numerics import gram_schmidt, pseudo_inverse

ENUM_DIM_LIMIT = 8
DEFAULT_DELTA = 0.99


@dataclass
class LatticeBasis:
    """Full-column-rank basis; Gram-Schmidt data computed lazily.  A stack
    of bases (..., m, n) is one LatticeBasis for the nearest-plane walk."""

    matrix: np.ndarray
    _gso: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim < 2 or self.matrix.shape[-1] < 1:
            raise DegenerateBasisError("basis must be a matrix with >= 1 column")

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[-2]

    @property
    def rank(self) -> int:
        return self.matrix.shape[-1]

    @property
    def gso(self):
        """(bstar, mu, norms2) with norms2[i] = ||b*_i||^2, computed once."""
        if self._gso is None:
            self._gso = _gso_record(self.matrix)
        return self._gso


def _gso_record(b):
    bstar, mu = gram_schmidt(b)
    with np.errstate(over="ignore"):  # an overflow to inf raises below
        norms2 = np.sum(bstar**2, axis=-2)
    if not np.all((np.finfo(float).tiny <= norms2) & (norms2 < math.inf)):
        raise NumericalError("a squared Gram-Schmidt norm overflows or is "
                             "below the normal floats")
    return bstar, mu, norms2


def lattice_bases(mats: np.ndarray) -> list[LatticeBasis]:
    """A LatticeBasis per matrix of a stack, records from one gram_schmidt call."""
    return [LatticeBasis(m, _gso=rec) for m, rec in zip(mats, zip(*_gso_record(mats)))]


@dataclass
class ReductionResult:
    reduced: LatticeBasis
    transform: np.ndarray  # integer unimodular, int64, entries below 2^53
    swaps: int
    delta: float

    def original_coeffs(self, coeffs) -> np.ndarray:
        """transform @ coeffs as int64: coefficients in the original basis,
        exact, or NumericalError where max|transform| * sum|coeffs|, a
        bound on every partial sum, could pass 2^62."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        bound = np.abs(self.transform).max() * np.abs(coeffs).sum(dtype=float)
        if not bound < 2.0**62:
            raise NumericalError("a coefficient in the original basis "
                                 "overflows int64")
        return self.transform @ coeffs


@dataclass
class MinimaEstimate:
    values: np.ndarray  # lambda_1 .. lambda_j
    exact: bool


def int_rank_det(m) -> tuple[int, int]:
    """Exact (rank, det) of an integer matrix by one fraction-free (Bareiss)
    elimination; det is 0 unless the matrix is square of full rank."""
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    rank, sign, prev = 0, 1, 1
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col]
            a[r] = [(x * top[col] - f * y) // prev for x, y in zip(a[r], top)]
        prev = top[col]
        rank += 1
    return rank, sign * prev if rank == len(a) == len(a[0]) else 0


def lll_reduce(b: LatticeBasis) -> ReductionResult:
    """LLL reduction of the basis columns with Lovasz parameter DEFAULT_DELTA.

    Starts from copies of b's Gram-Schmidt record, the norms scaled by a
    power of two (exactly) so that no swap under- or overflows at any scale
    of b, and updates them at each swap.  The basis and its unimodular
    transform are one float working matrix [B; I], so each column operation
    moves both; the transform is integer and exact while its entries stay
    below 2^53, which is checked (NumericalError) before it is returned as
    int64.  Then reduced = b.matrix @ transform holds exactly for integer b.
    """
    n = b.rank
    work = np.vstack([b.matrix, np.eye(n)])
    _, mu, norms2 = b.gso
    mu, norms2 = mu.copy(), np.ldexp(norms2, -np.frexp(norms2.max())[1])
    swaps = 0
    k = 1
    while k < n:
        # Size-reduce only where |mu| > 1/2: the entries that round to non-zero.
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
        # Swap b_{k-1}, b_k; update the GSO in place (Cohen GTM 138 Alg. 2.6.3).
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
        raise NumericalError("an LLL transform entry reaches 2^53, beyond "
                             "exact float64 integers")
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


def nearest_plane(b: LatticeBasis, targets: np.ndarray, pick):
    """Nearest-plane walk from b_n down to b_1 for each row of targets; at
    level i, pick(i, centres) turns the real coefficients along b*_i into
    integers (rounding: Babai's decoder; a discrete Gaussian draw: Klein's
    sampler).  Returns (points, coeffs), one row per target.  A stack of
    bases (..., m, n) takes a stack of targets (..., k, m), one matmul per
    level for the whole stack."""
    bstar, _, norms2 = b.gso
    t = np.array(targets, dtype=float)
    coeffs = np.zeros(t.shape[:-1] + (b.rank,))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan raise below
        for i in range(b.rank - 1, -1, -1):
            centres = (t @ bstar[..., :, i, None])[..., 0] / norms2[..., i, None]
            coeffs[..., i] = pick(i, centres)
            t -= coeffs[..., i, None] * b.matrix[..., None, :, i]
    if not np.abs(coeffs).max(initial=0.0) < 2.0**53:
        raise NumericalError("a nearest-plane coefficient reaches 2^53, "
                             "beyond exact float64 integers")
    return coeffs @ np.swapaxes(b.matrix, -1, -2), coeffs.astype(np.int64)


def babai_nearest_plane(b: LatticeBasis, target: np.ndarray):
    """Babai's nearest-plane decoder.  Returns (lattice point, coefficients)."""
    target = np.asarray(target, dtype=float)
    if target.shape[0] != b.ambient_dim:
        raise ValueError("target dimension does not match the basis")
    points, coeffs = nearest_plane(b, target[None], lambda i, c: np.rint(c))
    return points[0], coeffs[0]


def _check_dim(b: LatticeBasis):
    if b.rank > ENUM_DIM_LIMIT:
        raise DimensionGuardError(
            f"exact enumeration limited to n <= {ENUM_DIM_LIMIT} (got {b.rank})")


def _zigzag(c: float, lo, hi):
    """The integers of [lo, hi] in order of distance from c."""
    up = min(max(round(c), lo), hi)
    down = up - 1
    while up <= hi or down >= lo:
        if up <= hi and (down < lo or up - c <= c - down):
            yield up
            up += 1
        else:
            yield down
            down -= 1


def _search(b: LatticeBasis, target: np.ndarray, radius2: float, visit,
            box=None):
    """Schnorr-Euchner enumeration of the lattice points b z within squared
    distance radius2 of target (in the span of b), each z_i in [lo, hi] when
    box = (lo, hi) is given.  Each level tries coefficients nearest its
    centre first, so the first leaf is the Babai point (clamped into the
    box) and a level ends at its first coefficient beyond the radius.
    visit(z, d2) is called at each leaf, z a tuple, and returns the squared
    radius for the rest of the search.
    """
    bstar, mu, norms2 = b.gso
    tcoord = (np.asarray(target, dtype=float) @ bstar / norms2).tolist()
    norms2, mu = norms2.tolist(), mu.tolist()
    n = len(norms2)
    lo, hi = box if box is not None else (-math.inf, math.inf)
    z, center, levels = [0] * n, [0.0] * n, [None] * n
    above = [0.0] * (n + 1)  # squared distance of the levels above

    def enter(i):
        center[i] = tcoord[i] - sum(z[k] * mu[k][i] for k in range(i + 1, n))
        levels[i] = _zigzag(center[i], lo, hi)

    i = n - 1
    enter(i)
    while i < n:
        zi = next(levels[i], None)
        if zi is not None:
            d2 = above[i + 1] + (zi - center[i]) ** 2 * norms2[i]
        if zi is None or d2 > radius2:
            i += 1
        elif i:
            z[i], above[i] = zi, d2
            i -= 1
            enter(i)
        else:
            z[0] = zi
            radius2 = visit(tuple(z), d2)


def closest_point(b: LatticeBasis, target: np.ndarray, box=None) -> tuple:
    """Coefficients z of the point b z closest to target, each z_i in
    [lo, hi] when box = (lo, hi) is given; exact, in b's own coordinates (no
    reduction step).  Ties go to the lexicographically smallest z."""
    best = (math.inf, ())

    def visit(z, d2):
        nonlocal best
        best = min(best, (d2, z))
        return best[0]

    _search(b, target, math.inf, visit, box)
    return best[1]


def enumerate_cvp(b: LatticeBasis, target: np.ndarray):
    """Exact closest lattice point; ties broken by lexicographically
    smallest coefficient vector of the LLL-reduced basis."""
    _check_dim(b)
    red = lll_reduce(b)
    coeffs = red.original_coeffs(closest_point(red.reduced, target))
    return b.matrix @ coeffs, coeffs


def enumerate_svp(b: LatticeBasis):
    """Exact shortest nonzero vector and lambda_1."""
    _check_dim(b)
    red = lll_reduce(b).reduced
    # Start just above the shortest reduced column (relative slack).
    best = (float(np.min(np.sum(red.matrix**2, axis=0))) * (1 + 1e-9), ())

    def visit(z, d2):
        nonlocal best
        if any(z):
            best = min(best, (d2, z))
        return best[0]

    _search(red, np.zeros(b.ambient_dim), best[0], visit)
    v = red.matrix @ np.array(best[1])
    return v, float(np.linalg.norm(v))


def successive_minima(b: LatticeBasis) -> MinimaEstimate:
    """lambda_1..lambda_n, exact by enumeration for n <= 8."""
    n = b.rank
    red = lll_reduce(b).reduced
    if n > ENUM_DIM_LIMIT:
        # Upper bounds from an LLL-reduced basis; not exact.
        norms = np.sort(np.linalg.norm(red.matrix, axis=0))
        return MinimaEstimate(norms, exact=False)
    # The minima are at most the longest reduced column (slack as in SVP).
    radius2 = float(np.max(np.sum(red.matrix**2, axis=0))) * (1 + 1e-9)
    cands = []

    def visit(z, d2):
        if any(z):
            cands.append((d2, z))
        return radius2

    _search(red, np.zeros(b.ambient_dim), radius2, visit)
    chosen, values = [], []
    for d2, coeffs in sorted(cands):
        if int_rank_det(chosen + [coeffs])[0] == len(chosen) + 1:
            chosen.append(coeffs)
            values.append(math.sqrt(d2))
            if len(chosen) == n:
                break
    return MinimaEstimate(np.array(values), exact=True)


def dual_basis(b: LatticeBasis) -> LatticeBasis:
    """Dual lattice basis B (B^T B)^{-1} (equals (B^T)^{-1} for square B)."""
    return LatticeBasis(pseudo_inverse(b.matrix.T))

