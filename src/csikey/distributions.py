"""Gaussian machinery: continuous widths, discrete Gaussians on lattices,
and total variational distance.

Width convention: a Gaussian of width w has standard deviation w / sqrt(2*pi),
so its density is proportional to exp(-pi * x**2 / w**2).
"""

import math

import numpy as np

from .errors import ParameterError, need_array, need_int, need_real
from .lattice import LatticeBasis, nearest_plane, successive_minima

SQRT_2PI = math.sqrt(2.0 * math.pi)


def psi_std(width: float) -> float:
    """Standard deviation of the width-w Gaussian."""
    return width / SQRT_2PI


def psi_sample(width: float, rng: np.random.Generator, size=None):
    """Draw from the zero-mean Gaussian of the given width."""
    return _psi_sample(need_real("width", width, 0, math.inf), rng, size)


def _psi_sample(width: float, rng: np.random.Generator, size=None):
    """psi_sample at a checked width; at width 0, zeros and no draw."""
    return rng.normal(0.0, psi_std(width), size=size) if width else np.zeros(size)


def tvd_gaussians(w1: float, w2: float) -> float:
    """Exact total variational distance between two zero-mean normals.

    Uses the closed form from the densities' crossing points +-x*.
    """
    need_real("w1", w1, 0, math.inf)
    need_real("w2", w2, 0, math.inf)
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


def sample_discrete_gaussian_int(width: float, center, rng: np.random.Generator):
    """Sample integers from the 1-D discrete Gaussian of the given width.

    One independent draw per entry of center, all at the one width.  From
    width 1 up, rejection from a two-sided geometric proposal, exact for any
    width.  Below it, where that proposal accepts too rarely, inversion over
    the integers floor(c - 11 sigma) .. ceil(c + 11 sigma), which include
    floor(c) and ceil(c); the dropped tail weighs below 2^-60.

    Bounds: 0 < width < 2^46 and |c| <= 2^52.  Every integer formed in
    floats (the support, the rounded centre, and the proposal's offsets,
    at most 37 sigma since a nonzero uniform draw is at least 2^-53) then
    stays below 2^53, where float64 integers are exact.
    """
    need_real("width", width, 0, 2**46)
    center = need_array("center", np.atleast_1d(center), (None,))
    if not np.all(np.abs(center) <= 2.0**52):
        raise ParameterError("center must be finite, with |center| <= 2^52")
    # One sigma per entry: the arithmetic below stays elementwise, since a
    # scalar x**2 goes through pow and can differ from numpy's square.
    sigma = np.full(center.shape, width / SQRT_2PI)
    if width < 1:
        # Weights relative to the nearest integer, so none of them underflows
        # there.  Beyond the support |z - c| >= 1 and > 11 sigma, so each
        # weight is below exp(-3 (z - c)^2 / (8 sigma^2)) <= exp(-45.3).
        s, c = sigma[:, None], center[:, None]
        lo, hi = np.floor(c - 11 * s), np.ceil(c + 11 * s)
        z = lo + np.arange(int((hi - lo).max(initial=0)) + 1)
        w = np.exp(((np.round(c) - c) ** 2 - (z - c) ** 2) / (2 * s**2))
        cdf = np.cumsum(np.where(z <= hi, w, 0.0), axis=1)
        u = (1 - rng.random(cdf.shape[0])) * cdf[:, -1]  # in (0, total]
        return (lo[:, 0] + np.sum(cdf < u[:, None], axis=1)).astype(np.int64)
    out = np.zeros(center.shape, dtype=np.int64)
    c0 = np.round(center)
    # exp bound on  -(z-c)^2/(2 s^2) + |z-c0|/s  over integers z.
    log_m = 0.5 + 0.5 / sigma
    pending = np.ones(center.shape, dtype=bool)
    while np.any(pending):
        idx = np.flatnonzero(pending)
        k = idx.size
        u = np.floor(-sigma[idx] * np.log(rng.random(k))).astype(np.int64)
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


def discrete_gaussian_sample(b: LatticeBasis, r: float, rng: np.random.Generator,
                             size: int = 1):
    """Klein's randomized nearest-plane sampler of D_{L(b),r}, centred at 0.

    Returns (points, coeffs): points has shape (size, m), coeffs (size, n)
    with points = coeffs @ b.T exactly.
    """
    need_real("r", r, 0, math.inf)
    need_int("size", size, 1)
    widths = r / np.sqrt(b.gso[2])
    return nearest_plane(b, np.zeros((size, b.ambient_dim)), lambda i, c:
                         sample_discrete_gaussian_int(widths[i], c, rng))


def smoothing_upper_bound(basis: LatticeBasis, epsilon: float) -> float:
    """Upper bound sqrt(ln(2n(1+1/eps))/pi) * lambda_n on the smoothing width.

    lambda_n comes from successive_minima: exact (enumeration) for n <= 8,
    otherwise bounded by the longest column of an LLL-reduced basis.
    """
    need_real("epsilon", epsilon, 0, math.inf)
    lam_n = float(successive_minima(basis)[-1])
    return math.sqrt(math.log(2 * basis.rank * (1 + 1 / epsilon)) / math.pi) * lam_n
