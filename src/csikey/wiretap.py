"""The MIMO wiretap system: channel stacks with their SVD precoding, Bob's
per-stream decoder, Eve's observation, and the two sample distributions
that feed the decoding problems.

Channels travel as stacks of arrays (`Channels`); messages, noise and
observations as stacks of vectors that broadcast against them.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import psi_sample
from .errors import DegenerateBasisError, NumericalError, ParameterError
from .numerics import RANK_FLOOR, matvec, svd


@dataclass
class SystemParams:
    """All scalar parameters of the wiretap system."""

    n: int
    m_rx: int
    M: int
    alpha: float
    k: float = 1.0
    m_slack: float = 1.0
    noise_scale: float = 1.0  # channel noise width factor; 0 is noiseless
    P: float = field(init=False)  # expected norm of a uniform [0, M)^n vector

    def __post_init__(self):
        for name in ("n", "m_rx", "M"):  # numpy integers are Integral too
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ParameterError(f"{name} must be an integer")
        if not 1 <= self.n <= 2**53:  # so that P is a finite float
            raise ParameterError("n must be >= 1 and at most 2^53")
        if not 2 <= self.M <= 2**53:  # symbols stay exact float64 integers
            big = isinstance(self.M, int) and self.M > 2**64  # too long to print
            got = f"a {self.M.bit_length()}-bit M" if big else self.M
            raise ParameterError(f"M must lie in [2, 2^53], got {got}")
        for name in ("alpha", "k", "m_slack"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if not 0 <= self.noise_scale < math.inf:
            raise ParameterError("noise_scale must be finite and >= 0")
        if not np.finfo(float).tiny <= self.k * self.k < math.inf:
            raise ParameterError(f"k^2 must be a positive normal float, k = {self.k}")
        if self.m_rx < 1 or self.m_rx > self.n**3:
            raise ParameterError(f"m_rx must lie in [1, n^3], got {self.m_rx}")
        if self.m_rx > 16 * self.n:
            warnings.warn(f"m_rx={self.m_rx} above 16*n={16 * self.n}", stacklevel=2)
        self.P = math.sqrt(self.n * (self.M - 1) * (2 * self.M - 1) / 6.0)

    @property
    def noise_width(self) -> float:
        """Channel noise width M * alpha (unscaled inner-product form)."""
        return self.M * self.alpha


class Channels(NamedTuple):
    """T channels as stacks: A (T, m_rx, n), its thin SVD
    A = U diag(sigma) V^T (the CSI-key), and Eve's channel G = B V
    (T, m_rx, n), None where B was not drawn."""

    A: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    G: np.ndarray | None


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


def symbol_array(x, M: int, error: str) -> np.ndarray:
    """x as int64 if every entry is an integer in [0, M), else
    ParameterError(error).  Integer and bool arrays pass with one range
    test; float arrays only with finite integral values."""
    x = np.asarray(x)
    if x.dtype.kind in "biu":
        ok = not ((x < 0) | (x >= M)).any()
    else:
        ok = x.dtype.kind == "f" and ((x >= 0) & (x < M) & (x == np.floor(x))).all()
    if not ok:
        raise ParameterError(error)
    return x.astype(np.int64, copy=False)


def make_instance(p: SystemParams, rng: np.random.Generator, t: int,
                  eve: bool = False) -> Channels:
    """Draw t channels with i.i.d. width-k entries, each from its own pair of
    child streams of rng: A from the first and, if eve, B from the second.
    rng itself takes no draw, so t channels equal t draws of one."""
    if not isinstance(t, numbers.Integral) or t < 1:
        raise ParameterError(f"t must be an integer >= 1, got {t!r}")
    if p.m_rx < p.n:
        raise DegenerateBasisError("fewer receive antennas than streams")
    streams = rng.spawn(2 * t)

    def draw(kids):  # one width-k matrix from each child stream
        return np.stack([psi_sample(p.k, c, size=(p.m_rx, p.n)) for c in kids])

    A = draw(streams[::2])
    U, sigma, V = svd(A)
    return Channels(A, U, sigma, V, draw(streams[1::2]) @ V if eve else None)


def channel_noise(p: SystemParams, rng: np.random.Generator, shape) -> np.ndarray:
    """Bob's or Eve's channel noise, i.i.d. width M*alpha scaled by
    p.noise_scale; at scale 0, zeros and no draw."""
    if p.noise_scale == 0:
        return np.zeros(shape)
    return psi_sample(p.noise_width * p.noise_scale, rng, size=shape)


def transmit_to_bob(ch: Channels, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """y = A V x + e: Alice sends V x (the SVD precoding) through A."""
    if np.shape(x)[-1] != ch.A.shape[-1]:
        raise ParameterError("message dimension does not match the channel")
    return matvec(ch.A, matvec(ch.V, x)) + e


def hard_decision(est, M: int) -> np.ndarray:
    """Nearest symbols in [0, M) as int64; NumericalError if one is not finite."""
    est = np.rint(est)
    if not np.all(np.isfinite(est)):
        raise NumericalError("a symbol estimate is not finite")
    return np.clip(est, 0, M - 1).astype(np.int64)


def csi_invert(ch: Channels, y: np.ndarray) -> np.ndarray:
    """Sigma^-1 U^T y, the CSI-key inversion with ch's U and sigma; the
    rank test is relative.  An estimate that overflows (noise that dwarfs
    the channel) raises NumericalError."""
    if not np.all(ch.sigma[..., -1] > RANK_FLOOR * ch.sigma[..., 0]):
        raise DegenerateBasisError("channel matrix numerically rank deficient")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        est = matvec(np.swapaxes(ch.U, -1, -2), y) / ch.sigma
    if not np.all(np.isfinite(est)):
        raise NumericalError("the CSI-key inversion is not finite")
    return est


def bob_decode(ch: Channels, y: np.ndarray, p: SystemParams) -> np.ndarray:
    """Receiver shaping U^T y then per-stream rounding by 1/sigma_i."""
    return hard_decision(csi_invert(ch, y), p.M)


def eve_receive(ch: Channels, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eve's observation y = G x + e through her effective channel G = B V."""
    return matvec(ch.G, x) + e


def sample_A_dist(x: np.ndarray, p: SystemParams, rng: np.random.Generator,
                  count: int, noise_width: float) -> SampleBatch:
    """Rows (a_i, <a_i, x> + e_i); a_i i.i.d. width-k entries, e_i of width
    noise_width (alpha, or a padded width, in the search reductions)."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    x = np.asarray(x, dtype=float)
    a = psi_sample(p.k, rng, size=(count, p.n))
    e = psi_sample(noise_width, rng, size=count)
    return SampleBatch(a=a, y=a @ x + e)


def r_dist_width(p: SystemParams) -> float:
    """Width of the structure-free y marginal, sqrt((kP)^2 + alpha^2)."""
    return math.hypot(p.k * p.P, p.alpha)


def sample_R_dist(p: SystemParams, rng: np.random.Generator,
                  count: int) -> SampleBatch:
    """Rows (a_i, psi) with psi independent of a_i."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    a = psi_sample(p.k, rng, size=(count, p.n))
    y = psi_sample(r_dist_width(p), rng, size=count)
    return SampleBatch(a=a, y=y)

