"""Gaussian machinery: continuous widths, discrete Gaussians on lattices,
total variational distance, and the discrete-to-continuous sample transform.

Width convention: a Gaussian of width w has standard deviation w / sqrt(2*pi),
so its density is proportional to exp(-pi * x**2 / w**2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, WidthTooSmallError
from .numerics import gram_schmidt

SQRT_2PI = math.sqrt(2.0 * math.pi)


def psi_std(width: float) -> float:
    """Standard deviation of the width-w Gaussian."""
    return width / SQRT_2PI


def psi_sample(width: float, rng: np.random.Generator, size=None):
    """Draw from the zero-mean Gaussian of the given width."""
    if width <= 0:
        raise ParameterError(f"width must be positive, got {width}")
    return rng.normal(0.0, psi_std(width), size=size)


def tvd_gaussians(w1: float, w2: float) -> float:
    """Exact total variational distance between two zero-mean normals.

    Uses the closed form from the densities' crossing points +-x*.
    """
    if w1 <= 0 or w2 <= 0:
        raise ParameterError("widths must be positive")
    if w1 == w2:
        return 0.0
    s1, s2 = sorted((psi_std(w1), psi_std(w2)))
    # Densities cross where the log-densities agree.
    x2 = 2.0 * s1**2 * s2**2 * math.log(s2 / s1) / (s2**2 - s1**2)
    x = math.sqrt(x2)
    # The narrow density dominates on (-x, x); P(|X| < x) = erf(x / (s sqrt 2)).
    inner1 = math.erf(x / (s1 * math.sqrt(2.0)))
    inner2 = math.erf(x / (s2 * math.sqrt(2.0)))
    return inner1 - inner2


def sample_discrete_gaussian_int(width, center, rng: np.random.Generator):
    """Sample integers from the 1-D discrete Gaussian of the given width.

    width and center may be arrays (one independent draw per entry).  Uses
    rejection from a two-sided geometric proposal; exact for any width.
    """
    shape = np.broadcast_shapes(np.shape(width), np.shape(center))
    width = np.atleast_1d(np.broadcast_to(np.asarray(width, dtype=float),
                                          shape)).copy()
    center = np.broadcast_to(np.asarray(center, dtype=float),
                             width.shape).copy()
    if np.any(width <= 0):
        raise ParameterError("width must be positive")
    sigma = width / SQRT_2PI
    c0 = np.round(center)
    t = np.exp(-1.0 / np.maximum(sigma, 1e-12))
    # exp bound on  -(z-c)^2/(2 s^2) + |z-c0|/s  over integers z.
    log_m = 0.5 + 0.5 / sigma
    out = np.zeros(width.shape, dtype=np.int64)
    pending = np.ones(width.shape, dtype=bool)
    while np.any(pending):
        idx = np.flatnonzero(pending)
        k = idx.size
        u = np.floor(np.log(rng.random(k)) / np.log(t[idx])).astype(np.int64)
        sign = rng.integers(0, 2, size=k) * 2 - 1
        z = c0[idx] + sign * u
        logp = (
            -((z - center[idx]) ** 2) / (2.0 * sigma[idx] ** 2)
            + u / sigma[idx]
            - log_m[idx]
        )
        logp = np.where(u == 0, logp - math.log(2.0), logp)
        accept = np.log(rng.random(k)) < logp
        out[idx[accept]] = z[accept].astype(np.int64)
        pending[idx[accept]] = False
    return out


@dataclass
class DiscreteGaussianSpec:
    """D_{L,r} over the lattice spanned by the basis columns, centered at c."""

    basis: np.ndarray
    r: float
    center: np.ndarray | None = None
    allow_narrow: bool = False
    _gso: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.r <= 0:
            raise ParameterError("width r must be positive")
        n = self.basis.shape[1]
        if self.center is None:
            self.center = np.zeros(self.basis.shape[0])
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape[0] != self.basis.shape[0]:
            raise ParameterError("center dimension does not match the lattice")
        self._gso = gram_schmidt(self.basis)
        gso_max = float(np.max(np.linalg.norm(self._gso[0], axis=0)))
        self.width_threshold = gso_max * max(1.0, math.log2(n))
        if self.r <= self.width_threshold and not self.allow_narrow:
            raise WidthTooSmallError(
                f"r={self.r} below quality threshold {self.width_threshold:.4g}; "
                "pass allow_narrow=True to sample anyway"
            )


def discrete_gaussian_sample(spec: DiscreteGaussianSpec, rng: np.random.Generator,
                             size: int = 1):
    """Randomized nearest-plane (Klein) sampler over the supplied basis.

    Returns (points, coeffs): points has shape (size, m), coeffs (size, n)
    with points = coeffs @ basis.T exactly.
    """
    b = spec.basis
    bstar, _ = spec._gso
    m, n = b.shape
    norms2 = np.sum(bstar**2, axis=0)
    t = np.broadcast_to(spec.center, (size, m)).astype(float).copy()
    coeffs = np.zeros((size, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        ci = t @ bstar[:, i] / norms2[i]
        wi = spec.r / math.sqrt(norms2[i])
        zi = sample_discrete_gaussian_int(np.full(size, wi), ci, rng)
        coeffs[:, i] = zi
        t -= np.outer(zi, b[:, i])
    points = coeffs @ b.T
    return points, coeffs


def smoothing_upper_bound(basis: np.ndarray, epsilon: float) -> float:
    """Upper bound sqrt(ln(2n(1+1/eps))/pi) * lambda_n on the smoothing width.

    lambda_n is exact (enumeration) for n <= 6, otherwise bounded by the
    largest Gram-Schmidt norm of an LLL-reduced basis.
    """
    if not 0 < epsilon:
        raise ParameterError("epsilon must be positive")
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[1]
    lam_n = _lambda_n_estimate(basis)
    return math.sqrt(math.log(2 * n * (1 + 1 / epsilon)) / math.pi) * lam_n


def _lambda_n_estimate(basis: np.ndarray) -> float:
    from . import lattice  # local import; lattice does not import us at module level

    n = basis.shape[1]
    lb = lattice.LatticeBasis(basis)
    if n <= 6:
        est = lattice.successive_minima(lb)
        return float(est.values[-1])
    reduced = lattice.lll_reduce(lb).reduced
    return float(np.max(np.linalg.norm(reduced.matrix, axis=0)))
