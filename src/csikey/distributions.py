"""Gaussian machinery: continuous widths, discrete Gaussians on lattices,
and total variational distance.

Width convention: a Gaussian of width w has standard deviation w / sqrt(2*pi),
so its density is proportional to exp(-pi * x**2 / w**2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lattice import LatticeBasis, nearest_plane, successive_minima

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
    """D_{L,r} over the lattice spanned by the basis columns, centred at 0."""

    basis: LatticeBasis
    r: float

    def __post_init__(self):
        if not isinstance(self.basis, LatticeBasis):
            self.basis = LatticeBasis(self.basis)
        if self.r <= 0:
            raise ParameterError("width r must be positive")


def discrete_gaussian_sample(spec: DiscreteGaussianSpec, rng: np.random.Generator,
                             size: int = 1):
    """Randomized nearest-plane (Klein) sampler over the supplied basis.

    Returns (points, coeffs): points has shape (size, m), coeffs (size, n)
    with points = coeffs @ basis.T exactly.
    """
    b = spec.basis
    widths = spec.r / np.sqrt(b.gso[2])
    return nearest_plane(b, np.zeros((size, b.ambient_dim)), lambda i, c:
                         sample_discrete_gaussian_int(widths[i], c, rng))


def smoothing_upper_bound(basis: np.ndarray, epsilon: float) -> float:
    """Upper bound sqrt(ln(2n(1+1/eps))/pi) * lambda_n on the smoothing width.

    lambda_n comes from successive_minima: exact (enumeration) for n <= 8,
    otherwise bounded by the longest column of an LLL-reduced basis.
    """
    if not 0 < epsilon:
        raise ParameterError("epsilon must be positive")
    basis = LatticeBasis(basis)
    lam_n = float(successive_minima(basis).values[-1])
    return math.sqrt(math.log(2 * basis.rank * (1 + 1 / epsilon)) / math.pi) * lam_n
