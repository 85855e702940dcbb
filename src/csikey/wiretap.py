"""The MIMO wiretap system: channel stacks with their SVD precoding, Bob's
per-stream decoder, Eve's observation, and the A-distribution sample
batches that feed the decoding problems.

Channels travel as stacks of arrays (`Channels`); messages, noise and
observations as stacks of vectors that broadcast against them.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distributions import _psi_sample, psi_sample
from .errors import (DegenerateBasisError, NumericalError, ParameterError,
                     need_array, need_int, need_real)
from .numerics import RANK_FLOOR, _matvec, svd

CHUNK = 64  # channel uses per stacked draw; bounds the memory held at once


@dataclass(frozen=True)
class SystemParams:
    """All scalar parameters of the wiretap system, fixed once built."""

    n: int
    m_rx: int
    M: int
    alpha: float
    k: float = 1.0
    m_slack: float = 1.0
    noise_scale: float = 1.0  # channel noise width factor; 0 is noiseless
    P: float = field(init=False)  # expected norm of a uniform [0, M)^n vector

    def __post_init__(self):
        need_int("n", self.n, 1)  # at most 2^53, so that P is a finite float
        need_int("M", self.M, 2)  # symbols stay exact float64 integers
        need_int("m_rx", self.m_rx, 1, self.n**3)
        for name in ("alpha", "k", "m_slack"):
            need_real(name, getattr(self, name), 0, math.inf)
        if need_real("noise_scale", self.noise_scale, -math.inf, math.inf) < 0:
            raise ParameterError(f"noise_scale must be >= 0, got {self.noise_scale!r}")
        if not np.finfo(float).tiny <= self.k * self.k < math.inf:
            raise ParameterError(f"k^2 must be a positive normal float, k = {self.k}")
        if self.m_rx > 16 * self.n:
            warnings.warn(f"m_rx={self.m_rx} above 16*n={16 * self.n}", stacklevel=2)
        object.__setattr__(self, "P", math.sqrt(
            self.n * (self.M - 1) * (2 * self.M - 1) / 6.0))

    @cached_property
    def noise_width(self) -> float:
        """Channel noise width M * alpha * noise_scale, 0 at scale 0, checked
        at its first read: psi_sample's ParameterError unless a positive float."""
        return self.noise_scale and need_real(
            "width", self.M * self.alpha * self.noise_scale, 0, math.inf)


class Channels(NamedTuple):
    """T channels as stacks: A (T, m_rx, n), its thin SVD
    A = U diag(sigma) V^T (the CSI-key), and Eve's channel G = B V
    (T, m_rx, n), None where B was not drawn."""

    A: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    G: np.ndarray | None


def random_message(p: SystemParams, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, p.M, size=p.n)


def make_instance(p: SystemParams, rng: np.random.Generator, t: int,
                  eve: bool = False) -> Channels:
    """Draw t channels with i.i.d. width-k entries, each from its own pair of
    child streams of rng: A from the first and, if eve, B from the second.
    rng itself takes no draw, so t channels equal t draws of one."""
    return _make_instance(p, rng, need_int("t", t, 1), eve)


def _make_instance(p: SystemParams, rng, t: int, eve: bool = False) -> Channels:
    """make_instance for an integer t >= 1."""
    if p.m_rx < p.n:
        raise DegenerateBasisError("fewer receive antennas than streams")
    streams = rng.spawn(2 * t)

    def draw(kids):  # one width-k matrix from each child stream
        return np.stack([_psi_sample(p.k, c, size=(p.m_rx, p.n)) for c in kids])

    A = draw(streams[::2])
    U, sigma, V = svd(A)
    return Channels(A, U, sigma, V, draw(streams[1::2]) @ V if eve else None)


def channel_noise(p: SystemParams, rng: np.random.Generator, shape) -> np.ndarray:
    """Bob's or Eve's channel noise, i.i.d. of width p.noise_width; at
    scale 0, zeros and no draw.  Every run draws its noise here."""
    return _psi_sample(p.noise_width, rng, shape)


def transmit_to_bob(ch: Channels, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """y = A V x + e: Alice sends V x (the SVD precoding) through A."""
    x = need_array("x", x, (..., ch.A.shape[-1]), finite=False)
    return _transmit(ch, x, need_array("e", e, (..., ch.A.shape[-2]), finite=False))


def _transmit(ch: Channels, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """transmit_to_bob of a stack of symbol vectors x and one of noise e."""
    return _matvec(ch.A, _matvec(ch.V, x), e)


def _hard_decision(est, M: int) -> np.ndarray:
    """Nearest symbols in [0, M) as int64; NumericalError if one is not finite."""
    est = np.rint(est)
    if not np.all(np.isfinite(est)):
        raise NumericalError("a symbol estimate is not finite")
    return np.clip(est, 0, M - 1).astype(np.int64)


def csi_invert(ch: Channels, y: np.ndarray) -> np.ndarray:
    """Sigma^-1 U^T y, the CSI-key inversion with ch's U and sigma; the
    rank test is relative.  An estimate that overflows (noise that dwarfs
    the channel) raises NumericalError."""
    return _csi_invert(ch, need_array("y", y, (..., ch.U.shape[-2]), finite=False))


def _csi_invert(ch: Channels, y: np.ndarray) -> np.ndarray:
    """csi_invert of a float stack of observations y (..., m_rx)."""
    if not np.all(ch.sigma[..., -1] > RANK_FLOOR * ch.sigma[..., 0]):
        raise DegenerateBasisError("channel matrix numerically rank deficient")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises below
        est = _matvec(np.swapaxes(ch.U, -1, -2), y) / ch.sigma
    if not np.all(np.isfinite(est)):
        raise NumericalError("the CSI-key inversion is not finite")
    return est


def bob_decode(ch: Channels, y: np.ndarray, p: SystemParams) -> np.ndarray:
    """Receiver shaping U^T y then per-stream rounding by 1/sigma_i."""
    return _hard_decision(csi_invert(ch, y), p.M)


def eve_receive(ch: Channels, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eve's observation y = G x + e through her effective channel G = B V."""
    if ch.G is None:
        raise ParameterError("these channels have no G: draw them with eve=True")
    x = need_array("x", x, (..., ch.G.shape[-1]), finite=False)
    e = need_array("e", e, (..., ch.G.shape[-2]), finite=False)
    return _matvec(ch.G, x, e)


def sample_A_dist(x: np.ndarray, p: SystemParams, rng: np.random.Generator,
                  count: int, noise_width: float) -> tuple:
    """The batch (a, y) of rows (a_i, <a_i, x> + e_i); a_i i.i.d. width-k
    entries, e_i of width noise_width (alpha, or a padded width, in the
    search reductions)."""
    need_int("count", count, 1)
    x = need_array("x", x, (p.n,))
    a = psi_sample(p.k, rng, size=(count, p.n))
    e = psi_sample(noise_width, rng, size=count)
    return a, a @ x + e
