"""The MIMO wiretap system: channel instantiation, SVD precoding, Bob's
per-stream decoder, Eve's observation, and the two sample distributions
that feed the decoding problems.

Channel gains are width-k Gaussians; channel noise defaults to width
M*alpha per receive antenna.  The reduction machinery instead works with
per-sample noise width alpha (both conventions give the same received
SNR); pass noise_width explicitly where that matters.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import psi_sample
from .errors import DegenerateBasisError, ParameterError
from .numerics import SvdTriple, svd

SIGMA_FLOOR = 1e-12  # relative to the largest singular value


@dataclass
class SystemParams:
    """All scalar parameters of the wiretap system."""

    n: int
    m_rx: int
    M: int
    alpha: float
    k: float = 1.0
    m_slack: float = 1.0
    P: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if not 2 <= self.M <= 2**53:  # symbols stay exact float64 integers
            raise ParameterError(f"M must lie in [2, 2^53], got {self.M}")
        for name in ("alpha", "k", "m_slack"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if not np.finfo(float).tiny <= self.k * self.k < math.inf:
            raise ParameterError(f"k^2 must be a positive normal float, k = {self.k}")
        if self.m_rx < 1 or self.m_rx > self.n**3:
            raise ParameterError(f"m_rx must lie in [1, n^3], got {self.m_rx}")
        if self.m_rx > 16 * self.n:
            warnings.warn(f"m_rx={self.m_rx} above 16*n={16 * self.n}", stacklevel=2)
        if self.P is None:
            # Expected norm of a uniform [0, M)^n symbol vector.
            self.P = math.sqrt(self.n * (self.M - 1) * (2 * self.M - 1) / 6.0)
        if self.P <= 0:
            raise ParameterError("P must be positive")

    @property
    def noise_width(self) -> float:
        """Channel noise width M * alpha (unscaled inner-product form)."""
        return self.M * self.alpha

    def to_json(self):
        return {
            "n": self.n, "m_rx": self.m_rx, "M": self.M, "alpha": self.alpha,
            "k": self.k, "m_slack": self.m_slack, "P": self.P,
        }


@dataclass
class WiretapInstance:
    """Channel matrices for the legitimate link (A) and eavesdropper (B),
    plus the SVD of A, which acts as the CSI-key.  B, the SVD and Eve's
    channel G = B V are computed on first read unless assigned first."""

    A: np.ndarray
    k: float
    rng_b: np.random.Generator = field(repr=False)

    def __post_init__(self):
        if self.A.shape[0] < self.A.shape[1]:
            raise DegenerateBasisError("fewer receive antennas than streams")

    @cached_property
    def B(self) -> np.ndarray:
        return psi_sample(self.k, self.rng_b, size=self.A.shape)

    @cached_property
    def svdA(self) -> SvdTriple:
        return svd(self.A)

    @cached_property
    def G(self) -> np.ndarray:
        return self.B @ self.svdA.V

    def invert(self, y: np.ndarray) -> np.ndarray:
        """Sigma^-1 U^T y, the CSI-key inversion; the rank test is relative."""
        tri = self.svdA
        if not tri.sigma_min > SIGMA_FLOOR * tri.sigma[0]:
            raise DegenerateBasisError("channel matrix numerically rank deficient")
        return (tri.U.T @ np.asarray(y, dtype=float)) / tri.sigma


@dataclass
class SampleBatch:
    """Rows (a_i, y_i) drawn from the A- or R-distribution."""

    a: np.ndarray  # (count, n)
    y: np.ndarray  # (count,)

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        if self.a.shape[0] != self.y.shape[0]:
            raise ParameterError("a and y row counts differ")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.y))):
            raise ParameterError("non-finite sample values")

    def __len__(self):
        return self.y.shape[0]


def random_message(p: SystemParams, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, p.M, size=p.n)


def make_instance(p: SystemParams, rng: np.random.Generator) -> WiretapInstance:
    """Draw A with i.i.d. width-k entries; B is drawn from its own substream
    on first read."""
    rng_a, rng_b = rng.spawn(2)
    return WiretapInstance(psi_sample(p.k, rng_a, size=(p.m_rx, p.n)), p.k, rng_b)


def precode(inst: WiretapInstance, x: np.ndarray) -> np.ndarray:
    """Alice's linear precoding x_tilde = V x."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != inst.A.shape[1]:
        raise ParameterError("message dimension does not match the channel")
    return inst.svdA.V @ x


def transmit_to_bob(inst: WiretapInstance, x: np.ndarray, p: SystemParams,
                    rng: np.random.Generator, noise_scale: float = 1.0) -> np.ndarray:
    """y = A V x + e with e i.i.d. width M*alpha (scaled by noise_scale)."""
    y = inst.A @ precode(inst, x)
    if noise_scale > 0:
        y = y + psi_sample(p.noise_width * noise_scale, rng, size=y.shape)
    return y


def bob_decode(inst: WiretapInstance, y: np.ndarray, p: SystemParams) -> np.ndarray:
    """Receiver shaping U^T y then per-stream rounding by 1/sigma_i."""
    return np.clip(np.rint(inst.invert(y)), 0, p.M - 1).astype(np.int64)


def eve_receive(inst: WiretapInstance, x: np.ndarray, p: SystemParams,
                rng: np.random.Generator, noise_scale: float = 1.0):
    """Eve's effective channel G = B V and observation y = G x + e."""
    y = inst.G @ np.asarray(x, dtype=float)
    if noise_scale > 0:
        y = y + psi_sample(p.noise_width * noise_scale, rng, size=y.shape)
    return inst.G, y


def sample_A_dist(x: np.ndarray, p: SystemParams, rng: np.random.Generator,
                  count: int, noise_width: float | None = None) -> SampleBatch:
    """Rows (a_i, <a_i, x> + e_i); a_i i.i.d. width-k entries.

    noise_width defaults to the channel convention M*alpha; the search
    reductions pass noise_width=alpha (or a padded width) instead.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if noise_width is None:
        noise_width = p.noise_width
    x = np.asarray(x, dtype=float)
    a = psi_sample(p.k, rng, size=(count, p.n))
    e = psi_sample(noise_width, rng, size=count) if noise_width > 0 else 0.0
    return SampleBatch(a=a, y=a @ x + e)


def r_dist_width(p: SystemParams) -> float:
    """Width of the structure-free y marginal, sqrt((kP)^2 + alpha^2)."""
    return math.sqrt((p.k * p.P) ** 2 + p.alpha**2)


def sample_R_dist(p: SystemParams, rng: np.random.Generator,
                  count: int) -> SampleBatch:
    """Rows (a_i, psi) with psi independent of a_i."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    a = psi_sample(p.k, rng, size=(count, p.n))
    y = psi_sample(r_dist_width(p), rng, size=count)
    return SampleBatch(a=a, y=y)

