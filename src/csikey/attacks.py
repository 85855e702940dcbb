"""Eve's decoders and the reduction machinery: zero-forcing, LLL+Babai,
exact maximum-likelihood search, solution verification, noise-padding
error handling, decision-to-search, and solving bounded-distance decoding
through a MIMO-search oracle.

Reduction-land sample batches carry per-sample noise of width alpha (or a
padded width), not the channel's M*alpha; pass noise_width accordingly.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (DiscreteGaussianSpec, discrete_gaussian_sample,
                            psi_sample, psi_std, smoothing_upper_bound)
from .errors import (ConfigurationError, DimensionGuardError, ParameterError,
                     ReductionFailureError, SearchFailureError)
from .lattice import (LatticeBasis, ReductionResult, babai_nearest_plane,
                      closest_point, dual_basis, lattice_bases, lll_reduce)
from .numerics import SvdTriple, pseudo_inverse, svd
from .wiretap import SampleBatch, SystemParams, make_instance, random_message, \
    transmit_to_bob, bob_decode, eve_receive

ML_SPACE_GUARD = 10**7
BER_CHUNK = 64  # ber trials per stacked factoring; bounds the memory held at once


@dataclass
class DecoderOutcome:
    estimate: np.ndarray


@dataclass
class BddInstance:
    basis: LatticeBasis
    target: np.ndarray
    bound_d: float

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=float)
        if self.bound_d <= 0:
            raise ParameterError("bound_d must be positive")


def zf_decode(g_pinv: np.ndarray, y: np.ndarray, M: int) -> DecoderOutcome:
    """Zero-forcing: per-symbol rounding and clamping of g_pinv y."""
    est = np.rint(g_pinv @ np.asarray(y, dtype=float))
    return DecoderOutcome(np.clip(est, 0, M - 1).astype(np.int64))


def babai_attack(red: ReductionResult, y: np.ndarray, M: int) -> DecoderOutcome:
    """Babai-decode y in red, the LLL-reduced lattice of the channel
    columns, and map the coefficients back through its unimodular transform."""
    _, coeffs = babai_nearest_plane(red.reduced, np.asarray(y, dtype=float))
    orig = red.transform @ coeffs.astype(object)
    est = np.array([int(c) for c in orig], dtype=np.int64)
    return DecoderOutcome(np.clip(est, 0, M - 1))


def exact_ml_decode(g: np.ndarray, y: np.ndarray, M: int) -> DecoderOutcome:
    """Exact ML over [0, M)^n: argmin ||y - g x||, lexicographic ties.

    A Schnorr-Euchner sphere search over the columns of g in the box
    [0, M-1]^n, with no reduction step (the box is in g's own coordinates).
    A rank-deficient g, whose ML decisions all lie in tie sets, raises
    DegenerateBasisError from gram_schmidt instead of returning the
    lexicographically first point of the set.
    """
    n = np.shape(g)[1]
    if M**n > ML_SPACE_GUARD:
        raise DimensionGuardError(f"M^n = {M**n} exceeds guard {ML_SPACE_GUARD}")
    x = closest_point(LatticeBasis(g), y, (0, M - 1))
    return DecoderOutcome(np.array(x, dtype=np.int64))


def make_exact_ml_oracle(p: SystemParams):
    """Search-oracle adapter: SampleBatch -> estimated symbol vector."""

    def oracle(batch: SampleBatch) -> np.ndarray:
        return exact_ml_decode(batch.a, batch.y, p.M).estimate

    return oracle


def verify_solution(batch: SampleBatch, candidate: np.ndarray, p: SystemParams,
                    noise_width: float | None = None) -> bool:
    """Accept iff the residual sample standard deviation is below the
    midpoint between the two hypothesis values.

    Correct candidate: residual width w0 (default alpha).  Any candidate
    off by >= 1 symbol: width at least sqrt(w0^2 + k^2).
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    w0 = p.alpha if noise_width is None else noise_width
    res = batch.y - batch.a @ np.asarray(candidate, dtype=float)
    res_std = math.sqrt(float(np.mean(res**2)))
    threshold = 0.5 * (psi_std(w0) + psi_std(math.sqrt(w0**2 + p.k**2)))
    return res_std < threshold


def error_handling_search(batch: SampleBatch, oracle, p: SystemParams,
                          rng: np.random.Generator) -> np.ndarray:
    """Solve from samples with unknown noise width beta <= alpha by padding
    with widths from a grid of multiples of n^-2 * alpha^2 (at most 10^4)."""
    n = p.n
    step = p.alpha**2 * n ** -2.0
    npoints = min(int(math.floor(p.alpha**2 / step)) + 1, 10**4)
    for idx in range(npoints):
        gamma = idx * step
        padded_width = math.sqrt(p.alpha**2 + gamma)
        for _ in range(max(1, n)):
            if gamma > 0:
                pad = psi_sample(math.sqrt(gamma), rng, size=len(batch))
                padded = SampleBatch(a=batch.a, y=batch.y + pad)
            else:
                padded = batch
            cand = oracle(padded)
            if verify_solution(padded, cand, p, noise_width=padded_width):
                return np.asarray(cand, dtype=np.int64)
    raise SearchFailureError("no padded noise level produced a verified answer")


def decision_to_search(batch: SampleBatch, decision_oracle, p: SystemParams,
                       rng: np.random.Generator,
                       noise_width: float | None = None) -> np.ndarray:
    """Recover x coordinate by coordinate from a decision oracle.

    For each coordinate, re-randomize that channel column and shift y by
    the column change times a guessed symbol; only the correct guess keeps
    the batch inside the structured distribution.
    """
    if p.M > 16:
        raise DimensionGuardError("decision_to_search budget limited to M <= 16")
    x = np.zeros(p.n, dtype=np.int64)
    for j in range(p.n):
        a_new = psi_sample(p.k, rng, size=len(batch))
        tiny = np.abs(a_new) < 1e-300
        while np.any(tiny):
            a_new[tiny] = psi_sample(p.k, rng, size=int(np.sum(tiny)))
            tiny = np.abs(a_new) < 1e-300
        shift = a_new - batch.a[:, j]
        accepted = None
        for m in range(p.M):
            a_mod = batch.a.copy()
            a_mod[:, j] = a_new
            shifted = SampleBatch(a=a_mod, y=batch.y + shift * m)
            if decision_oracle(shifted):
                accepted = m
                break
        if accepted is None:
            raise ReductionFailureError(f"no guess accepted for coordinate {j}")
        x[j] = accepted
    if not verify_solution(batch, x, p, noise_width=noise_width):
        raise ReductionFailureError("recovered vector failed verification")
    return x


def make_decision_oracle(p: SystemParams, noise_width: float | None = None):
    """Test-grade decision oracle: YES iff exact ML finds a verified solution."""

    def oracle(batch: SampleBatch) -> bool:
        cand = exact_ml_decode(batch.a, batch.y, p.M).estimate
        return verify_solution(batch, cand, p, noise_width=noise_width)

    return oracle


def bdd_sample_count(p: SystemParams, r: float, sigma: float, d: float) -> int:
    """Sample count needed for a reliable ML digit at the implied SNR.

    Per-sample noise relative to a one-symbol signal difference combines the
    injected channel noise and the cross term from the target's offset.
    """
    rho = math.hypot(p.M * p.alpha / (r * math.sqrt(2)), d / sigma)
    return max(256, int(math.ceil(120.0 * rho**2)))


def bdd_via_mimo(inst: BddInstance, r: float, mimo_oracle, p: SystemParams,
                 rng: np.random.Generator):
    """Solve bounded-distance decoding with a MIMO-search oracle.

    Draws dual-lattice discrete Gaussians of width r and emits noisy
    inner-product samples whose hidden symbol vector is the coefficient
    vector of the closest lattice point (reduced to [0, M)); the high-order
    digits are recovered from the target magnitude and the oracle resolves
    the fine structure.  Returns (closest point, coefficient vector).
    """
    eps = 0.01  # epsilon of the smoothing bounds
    basis = inst.basis
    bmat = basis.matrix
    n = basis.rank
    sigma = float(np.linalg.svd(bmat, compute_uv=False)[-1])

    eta_bound = smoothing_upper_bound(bmat, eps)
    if r <= math.sqrt(2) * eta_bound:
        raise ConfigurationError(
            f"width r={r:.4g} violates r > sqrt(2)*smoothing bound "
            f"({math.sqrt(2) * eta_bound:.4g})")
    d_cap = p.M * sigma * p.alpha / (p.k**2 * r * math.sqrt(2))
    if inst.bound_d >= d_cap:
        raise ConfigurationError(
            f"bound_d={inst.bound_d:.4g} violates d < M*sigma*alpha/(k^2 r sqrt(2)) "
            f"= {d_cap:.4g}")
    claim7_ok = d_cap > math.sqrt(n) / math.sqrt(2)
    if not claim7_ok:
        warnings.warn(
            f"iteration-progress inequality fails: {d_cap:.4g} <= "
            f"{math.sqrt(n) / math.sqrt(2):.4g}", stacklevel=2)

    dual = dual_basis(basis)
    # Statistical-hiding precondition: the cross-term-plus-noise width must
    # dominate the smoothing width of the scaled dual lattice.
    xi = p.k * inst.bound_d / sigma
    lhs = 1.0 / math.sqrt(1.0 / p.k**2 + (math.sqrt(2) * xi / (p.M * p.alpha)) ** 2)
    eta_dual_scaled = (r / p.k) * smoothing_upper_bound(dual.matrix, eps)
    if not (lhs >= p.k / math.sqrt(2) > eta_dual_scaled):
        raise ConfigurationError(
            f"statistical-hiding inequality fails: need "
            f"{lhs:.4g} >= {p.k / math.sqrt(2):.4g} > {eta_dual_scaled:.4g}")

    samples = bdd_sample_count(p, r, sigma, inst.bound_d)
    binv = pseudo_inverse(bmat)
    y = inst.target
    # High-order digits come from the target magnitude; the oracle only has
    # to resolve the residual, shifted into [0, M).  Coordinates whose
    # coefficient sits near a half-integer multiple of M round ambiguously,
    # so both roundings are tried there (verification certifies the answer).
    z = binv @ y / p.M
    base = np.rint(z)
    frac = z - base
    amb_margin = 1.5 * inst.bound_d / (sigma * p.M) + 1e-9
    ambiguous = np.flatnonzero(np.abs(frac) > 0.5 - amb_margin)[:6]
    offset = np.full(n, p.M // 2, dtype=np.int64)

    dg = DiscreteGaussianSpec(dual, r)
    for _ in range(3):
        for mask in range(2 ** len(ambiguous)):
            t0 = base.copy()
            for bit, j in enumerate(ambiguous):
                if mask >> bit & 1:
                    t0[j] += math.copysign(1.0, frac[j])
            t0 = t0.astype(np.int64)
            coord = binv @ (y - bmat @ (p.M * t0).astype(float)) + offset
            v, _ = discrete_gaussian_sample(dg, rng, size=samples)
            a = p.k * v / r
            e = psi_sample(p.alpha / math.sqrt(2), rng, size=samples)
            y_samp = p.k * (v @ coord) / (r * p.M) + p.k * e / r
            batch = SampleBatch(a=a / p.M, y=y_samp)
            guess = np.asarray(mimo_oracle(batch), dtype=np.int64)
            coeffs = p.M * t0 + (guess - offset)
            point = bmat @ coeffs.astype(float)
            if np.linalg.norm(y - point) <= inst.bound_d * (1 + 1e-9):
                return point, coeffs
    raise SearchFailureError(
        "oracle answers never landed within the bounding distance")


def toy_bdd_setup(n: int, rng: np.random.Generator, M: int = 12,
                  alpha: float = 3.0, k: float = 2.5, r: float = 2.5):
    """Rotated-Z^n toy family for exercising bdd_via_mimo end to end.

    All singular values equal 1, so the smoothing, distance-cap, progress and
    statistical-hiding preconditions reduce to scalar inequalities that the
    defaults satisfy for n <= 4.  Returns (params, instance, planted closest
    point, width r).
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    basis = LatticeBasis(q)
    coeffs = rng.integers(-3 * M, 3 * M + 1, size=n)
    point = q @ coeffs.astype(float)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    bound_d = 0.45
    target = point + direction * (bound_d * rng.uniform(0.2, 0.9))
    p = SystemParams(n=n, m_rx=n, M=M, alpha=alpha, k=k)
    return p, BddInstance(basis, target, bound_d), point, r


@dataclass
class BerResult:
    method: str
    n: int
    M: int
    alpha: float
    k: float
    trials: int
    ser: float
    ser_ci_low: float
    ser_ci_high: float
    seed: int


def _binom_ci(errors: int, total: int):
    p_hat = errors / total
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def ber_experiment(p: SystemParams, trials: int, methods, rng,
                   seed: int = 0, noise_scale: float = 1.0) -> list[BerResult]:
    """Monte Carlo symbol-error-rate comparison.  Bob's SVD decoder is
    always measured alongside the requested eavesdropper methods.  Each chunk
    of trials first draws and factors its channels in stacked calls."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    methods = set(methods)
    counts = {"bob": 0}
    for m in methods:
        counts[m] = 0
    for start in range(0, trials, BER_CHUNK):
        insts = [make_instance(p, rng)
                 for _ in range(min(BER_CHUNK, trials - start))]
        for inst, *key in zip(insts, *svd(np.stack([i.A for i in insts]))):
            inst.svdA = SvdTriple(*key)
        g = np.stack([inst.G for inst in insts])
        if "zf" in methods:
            g_pinv = pseudo_inverse(g)
        if "babai" in methods:
            reds = [lll_reduce(b) for b in lattice_bases(g)]
            reduced = lattice_bases(np.stack([r.reduced.matrix for r in reds]))
            reds = [replace(r, reduced=b) for r, b in zip(reds, reduced)]
        for t, inst in enumerate(insts):
            x = random_message(p, rng)
            y_b = transmit_to_bob(inst, x, p, rng, noise_scale=noise_scale)
            counts["bob"] += int(np.sum(bob_decode(inst, y_b, p) != x))
            _, y_e = eve_receive(inst, x, p, rng, noise_scale=noise_scale)
            if "zf" in methods:
                counts["zf"] += int(np.sum(zf_decode(g_pinv[t], y_e, p.M).estimate != x))
            if "babai" in methods:
                est = babai_attack(reds[t], y_e, p.M).estimate
                counts["babai"] += int(np.sum(est != x))
            if "ml" in methods:
                est = exact_ml_decode(inst.G, y_e, p.M).estimate
                counts["ml"] += int(np.sum(est != x))
    total = trials * p.n
    results = []
    for method, errs in sorted(counts.items()):
        lo, hi = _binom_ci(errs, total)
        results.append(BerResult(method, p.n, p.M, p.alpha, p.k, trials,
                                 errs / total, lo, hi, seed))
    return results
