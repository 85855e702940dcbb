"""Lattice core: basis handling, LLL reduction, the nearest-plane walk and
exact enumeration oracles at small dimension.

Basis vectors are matrix columns; every routine reads one Gram-Schmidt
record per basis (LatticeBasis.gso); LLL reduces stacks in lockstep.
Babai's decoder and Klein's sampler are one nearest-plane walk.  Exact CVP,
successive minima and box-constrained closest points are one Schnorr-Euchner
enumeration (Schnorr-Euchner 1994; Agrell-Eriksson-Vardy-Zeger 2002),
guarded to n <= 8.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateBasisError, DimensionGuardError, NumericalError,
                     ParameterError)
from .numerics import gram_schmidt

ENUM_DIM_LIMIT = 8
DEFAULT_DELTA = 0.99
LOCKSTEP_MIN = 16  # an LLL stack runs in lockstep while this many bases have work


@dataclass
class LatticeBasis:
    """Full-column-rank basis; Gram-Schmidt data computed lazily.  A stack
    of bases (..., m, n) is one LatticeBasis for the nearest-plane walk."""

    matrix: np.ndarray
    _gso: tuple = field(default=None, repr=False, compare=False)
    _stack: tuple = field(default=None, repr=False, compare=False)  # see lattice_bases

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
    """A LatticeBasis per matrix of a stack, records from one gram_schmidt
    call; each holds (shared, index), so lll_reduce reduces them together."""
    bstar, mu, norms2 = _gso_record(mats)
    shared = {"stack": (mats, mu, norms2)}
    return [LatticeBasis(m, _gso=r, _stack=(shared, i))
            for i, (m, r) in enumerate(zip(mats, zip(bstar, mu, norms2)))]


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


def int_rank_det(m) -> tuple[int, int]:
    """Exact (rank, det) of an integer matrix by one fraction-free (Bareiss)
    elimination; det is 0 unless the matrix is square of full rank."""
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        raise ParameterError(f"int_rank_det needs integer entries, got dtype {m.dtype}")
    a = m.tolist()
    rank, sign, prev = 0, 1, 1
    for col in range(m.shape[1]):
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
    return rank, sign * prev if rank == len(a) == m.shape[1] else 0


def lll_reduce(b: LatticeBasis) -> ReductionResult:
    """LLL reduction with Lovasz parameter DEFAULT_DELTA.  A lattice_bases
    stack is reduced whole on the first call for any of its bases, and later
    calls return the stored result; a lone basis is a stack of one."""
    shared, i = b._stack or ({"stack": [x[None] for x in (b.matrix, *b.gso[1:])]}, 0)
    if "reds" not in shared:
        shared["reds"] = _lll_stack(*shared["stack"])
    return shared["reds"][i]


def _lll_stack(mats, mu, norms2) -> list[ReductionResult]:
    """LLL of each basis of a stack (T, m, n) from copies of its Gram-Schmidt
    record, the norms scaled by a power of two (exact; no swap under- or
    overflows at any scale).  Each basis keeps its own k; while LOCKSTEP_MIN
    have work, one step serves them all (a size reduction at the largest
    j < k with |mu[k, j]| > 1/2, else the Lovasz test), and the rest finish
    in _lll_loop from their k.  Basis and transform are one float matrix
    [B; I]; the transform is checked below 2^53 (exact) before its int64 cast."""
    t, _, n = mats.shape
    work = np.concatenate([mats, np.broadcast_to(np.eye(n), (t, n, n))], axis=1)
    mu, norms2 = mu.copy(), np.ldexp(norms2, -np.frexp(norms2.max(1, keepdims=True))[1])
    k, swaps, cols = np.ones(t, int), np.zeros(t, int), np.arange(n)
    live = np.flatnonzero(k < n)
    while live.size >= LOCKSTEP_MIN:
        kl = k[live]
        big = (np.abs(mu[live, kl]) > 0.5) & (cols < kl[:, None])
        has = big.any(axis=1)
        a, ka, ja = live[has], kl[has], n - 1 - np.argmax(big[has, ::-1], axis=1)
        q = np.rint(mu[a, ka, ja])[:, None]
        work[a, :, ka] -= q * work[a, :, ja]
        mu[a, ka] -= q * mu[a, ja]  # mu[j, j + 1:] is 0
        a, ka = live[~has], kl[~has]
        m = mu[a, ka, ka - 1]
        keep = norms2[a, ka] >= (DEFAULT_DELTA - m * m) * norms2[a, ka - 1]
        s, ks, m = a[~keep], ka[~keep], m[~keep]  # swap b_{k-1}, b_k as _lll_loop
        work[s, :, ks - 1], work[s, :, ks] = work[s, :, ks], work[s, :, ks - 1]
        low, r1, r2 = cols < ks[:, None] - 1, mu[s, ks - 1], mu[s, ks]
        mu[s, ks - 1], mu[s, ks] = np.where(low, r2, r1), np.where(low, r1, r2)
        n1, n2 = norms2[s, ks - 1], norms2[s, ks]
        new = n2 + m * m * n1
        mu[s, ks, ks - 1] = mk = m * n1 / new
        norms2[s, ks], norms2[s, ks - 1] = n1 * n2 / new, new
        below, c1, c2 = cols > ks[:, None], mu[s, :, ks - 1], mu[s, :, ks]
        mu[s, :, ks] = c2new = np.where(below, c1 - m[:, None] * c2, c2)
        mu[s, :, ks - 1] = np.where(below, c2 + mk[:, None] * c2new, c1)
        swaps[s] += 1
        k[a] = np.where(keep, ka + 1, np.maximum(ka - 1, 1))
        live = live[k[live] < n]
    for i in live:
        swaps[i] += _lll_loop(work[i], mu[i], norms2[i], int(k[i]))
    if not np.abs(work[:, -n:]).max() < 2.0**53:
        raise NumericalError("an LLL transform entry reaches 2^53, beyond exact floats")
    return [ReductionResult(LatticeBasis(w[:-n]), w[-n:].astype(np.int64),
                            int(s), DEFAULT_DELTA) for w, s in zip(work, swaps)]


def _lll_loop(work, mu, norms2, k: int) -> int:
    """LLL of one basis in place from position k; returns the swap count."""
    swaps = 0
    while k < len(norms2):
        # Size-reduce only where |mu| > 1/2: the entries that round to non-zero.
        big = (np.abs(mu[k, :k]) > 0.5).nonzero()[0]
        while big.size:
            j = big[-1]
            q = round(mu[k, j])
            work[:, k] -= q * work[:, j]
            mu[k, : j + 1] -= q * mu[j, : j + 1]
            big = (np.abs(mu[k, :j]) > 0.5).nonzero()[0]
        m = mu[k, k - 1]
        if norms2[k] >= (DEFAULT_DELTA - m * m) * norms2[k - 1]:
            k += 1
            continue
        # Swap b_{k-1}, b_k; update the GSO in place (Cohen GTM 138 Alg. 2.6.3).
        pair = slice(k - 1, k + 1)
        work[:, pair] = work[:, pair][:, ::-1]
        mu[pair, : k - 1] = mu[pair, : k - 1][::-1]
        new = norms2[k] + m * m * norms2[k - 1]
        mu[k, k - 1] = m * norms2[k - 1] / new
        norms2[k], norms2[k - 1] = norms2[k - 1] * norms2[k] / new, new
        t = mu[k + 1:, k].copy()
        mu[k + 1:, k] = mu[k + 1:, k - 1] - m * t
        mu[k + 1:, k - 1] = t + mu[k, k - 1] * mu[k + 1:, k]
        swaps += 1
        k = max(k - 1, 1)
    return swaps


def nearest_plane(b: LatticeBasis, targets: np.ndarray, pick):
    """Nearest-plane walk from b_n down to b_1 for each row of targets; at
    level i, pick(i, centres) turns the real coefficients along b*_i into
    integers (rounding: Babai's decoder; a discrete Gaussian draw: Klein's
    sampler).  Returns (points, coeffs), one row per target.  A stack of
    bases (..., m, n) takes a stack of targets (..., k, m), one matmul per
    level for the whole stack."""
    bstar, _, norms2 = b.gso
    t = np.array(targets, dtype=float)
    if t.shape[-1:] != (b.ambient_dim,):
        raise ParameterError(f"targets of shape {t.shape} need length {b.ambient_dim}")
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


def _search(b: LatticeBasis, target: np.ndarray, radius2: float, box=None,
            shrink=False):
    """Schnorr-Euchner enumeration, a generator of the leaves (d2, z), z a
    tuple, of the lattice points b z within squared distance radius2 of
    target (in the span of b), each z_i in [lo, hi] when box = (lo, hi) is
    given.  Each level tries coefficients nearest its centre first, so the
    first leaf is the Babai point (clamped into the box), and a level ends
    at its first coefficient beyond the radius.  With shrink, the radius
    becomes each leaf's d2.  A centre or distance that is not finite raises
    NumericalError."""
    bstar, mu, norms2 = b.gso
    target = np.asarray(target, dtype=float)
    if target.shape != (b.ambient_dim,):
        raise ParameterError(f"target shape {target.shape} is not ({b.ambient_dim},)")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        tcoord = (target @ bstar / norms2).tolist()
    norms2, mu = norms2.tolist(), mu.tolist()
    n = len(norms2)
    lo, hi = box if box is not None else (-math.inf, math.inf)
    z = [0] * n

    def level(i, above):  # above: squared distance of the levels above i
        nonlocal radius2
        center = tcoord[i] - sum(z[k] * mu[k][i] for k in range(i + 1, n))
        if not math.isfinite(center):
            raise NumericalError("an enumeration centre is not finite")
        for zi in _zigzag(center, lo, hi):
            dz = abs(zi - center)  # dz ** 2 raises OverflowError from 2^512
            d2 = above + dz**2 * norms2[i] if dz < 2.0**512 else math.inf
            if not d2 < math.inf:
                raise NumericalError("an enumeration distance is not finite")
            if d2 > radius2:
                return
            z[i] = zi
            if i:
                yield from level(i - 1, d2)
            else:
                if shrink:
                    radius2 = d2
                yield d2, tuple(z)

    return level(n - 1, 0.0)


def closest_point(b: LatticeBasis, target: np.ndarray, box=None) -> tuple:
    """Coefficients z of the point b z closest to target, each z_i in
    [lo, hi] when box = (lo, hi) is given (ParameterError unless lo and hi
    are integers with lo <= hi);
    exact, in b's own coordinates (no reduction step): the least leaf of
    the search under a shrinking radius, ties to the lexicographically
    smallest z."""
    if box is not None and not all(isinstance(v, numbers.Integral) for v in box):
        raise ParameterError(f"coefficient box {tuple(box)} needs integer bounds")
    if box is not None and not box[0] <= box[1]:
        raise ParameterError(f"empty coefficient box {tuple(box)}")
    return min(_search(b, target, math.inf, box, shrink=True))[1]


def enumerate_cvp(b: LatticeBasis, target: np.ndarray):
    """Exact closest lattice point; ties broken by lexicographically
    smallest coefficient vector of the LLL-reduced basis."""
    if b.rank > ENUM_DIM_LIMIT:
        raise DimensionGuardError(f"exact CVP limited to n <= {ENUM_DIM_LIMIT}")
    red = lll_reduce(b)
    coeffs = red.original_coeffs(closest_point(red.reduced, target))
    return b.matrix @ coeffs, coeffs


def successive_minima(b: LatticeBasis) -> np.ndarray:
    """lambda_1..lambda_n, exact by enumeration for n <= 8."""
    n = b.rank
    red = lll_reduce(b).reduced
    if n > ENUM_DIM_LIMIT:
        # Upper bounds from an LLL-reduced basis; not exact.
        return np.sort(np.linalg.norm(red.matrix, axis=0))
    # The minima are at most the longest reduced column (a relative slack).
    radius2 = float(np.max(np.sum(red.matrix**2, axis=0))) * (1 + 1e-9)
    zeros = np.zeros(b.ambient_dim)
    cands = [c for c in _search(red, zeros, radius2) if any(c[1])]
    chosen, values = [], []
    for d2, coeffs in sorted(cands):
        if int_rank_det(chosen + [coeffs])[0] == len(chosen) + 1:
            chosen.append(coeffs)
            values.append(math.sqrt(d2))
            if len(chosen) == n:
                break
    return np.array(values)
