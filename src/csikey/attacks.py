"""Eve's decoders and the reduction machinery: zero-forcing, LLL+Babai,
exact maximum-likelihood search, solution verification, noise-padding
error handling, decision-to-search, and solving bounded-distance decoding
through a MIMO-search oracle.

Reduction-land sample batches carry per-sample noise of width alpha (or a
padded width), not the channel's M*alpha; pass noise_width accordingly.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (discrete_gaussian_sample, psi_sample, psi_std,
                            smoothing_upper_bound)
from .errors import DimensionGuardError, ParameterError, SearchFailureError
from .lattice import (LatticeBasis, ReductionResult, closest_point,
                      lattice_bases, lll_reduce, nearest_plane)
from .numerics import matvec, pseudo_inverse, svd
from .wiretap import SampleBatch, SystemParams, make_instance, random_message, \
    channel_noise, transmit_to_bob, bob_decode, eve_receive, hard_decision

ML_SPACE_GUARD = 10**7
BER_ML_SPACE = 10**5  # ber_experiment adds exact ML where M^n is at most this
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
    with np.errstate(over="ignore", invalid="ignore"):  # hard_decision raises
        est = matvec(g_pinv, y)
    return DecoderOutcome(hard_decision(est, M))


def babai_attack(reds: list[ReductionResult], y: np.ndarray,
                 M: int) -> DecoderOutcome:
    """Babai-decode each y[t] in reds[t].reduced, the LLL-reduced lattice of
    a channel's columns, in one nearest-plane walk over the stacked bases,
    and map each trial's coefficients back through its unimodular transform.
    The estimate has one row per trial."""
    stack = LatticeBasis(np.stack([r.reduced.matrix for r in reds]))
    _, coeffs = nearest_plane(stack, np.asarray(y, dtype=float)[:, None],
                              lambda i, c: np.rint(c))
    est = [r.original_coeffs(z) for r, z in zip(reds, coeffs[:, 0])]
    return DecoderOutcome(hard_decision(est, M))


def exact_ml_decode(g: np.ndarray, y: np.ndarray, M: int,
                    basis: LatticeBasis | None = None) -> DecoderOutcome:
    """Exact ML over [0, M)^n: argmin ||y - g x||, lexicographic ties.

    A Schnorr-Euchner sphere search over the columns of g in the box
    [0, M-1]^n, with no reduction step (the box is in g's own coordinates).
    basis, if given, is LatticeBasis(g) with its Gram-Schmidt record
    already computed.  A rank-deficient g, whose ML decisions all lie in
    tie sets, raises DegenerateBasisError from gram_schmidt instead of
    returning the lexicographically first point of the set.
    """
    n = np.shape(g)[1]
    if M**n > ML_SPACE_GUARD:
        raise DimensionGuardError(f"M^n = {M**n} exceeds guard {ML_SPACE_GUARD}")
    x = closest_point(LatticeBasis(g) if basis is None else basis, y, (0, M - 1))
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
    # The RMS of the residuals scaled by a power of two (largest below 1)
    # is exact and its squares cannot overflow; hypot does not square.
    e = math.frexp(float(np.max(np.abs(res))))[1]
    res_std = math.ldexp(math.sqrt(float(np.mean(np.ldexp(res, -e) ** 2))), e)
    threshold = 0.5 * (psi_std(w0) + psi_std(math.hypot(w0, p.k)))
    return res_std < threshold


def error_handling_search(batch: SampleBatch, oracle, p: SystemParams,
                          rng: np.random.Generator) -> np.ndarray:
    """Solve from samples with unknown noise width beta <= alpha: one try
    unpadded (the oracle is deterministic), then n fresh paddings at each
    width alpha * sqrt(i) / n, i = 1 .. min(n^2, 10^4 - 1), in units of alpha."""
    n = p.n
    cand = oracle(batch)
    if verify_solution(batch, cand, p):
        return np.asarray(cand, dtype=np.int64)
    for i in range(1, min(n * n, 10**4 - 1) + 1):
        width = p.alpha * math.sqrt(i) / n
        for _ in range(n):
            padded = SampleBatch(a=batch.a, y=batch.y + psi_sample(
                width, rng, size=len(batch)))
            cand = oracle(padded)
            if verify_solution(padded, cand, p,
                               noise_width=math.hypot(p.alpha, width)):
                return np.asarray(cand, dtype=np.int64)
    raise SearchFailureError("no padded noise level produced a verified answer")


def decision_to_search(batch: SampleBatch, decision_oracle, p: SystemParams,
                       rng: np.random.Generator) -> np.ndarray:
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
        shift = a_new - batch.a[:, j]
        a_mod = batch.a.copy()
        a_mod[:, j] = a_new
        for m in range(p.M):
            if decision_oracle(SampleBatch(a=a_mod, y=batch.y + shift * m)):
                x[j] = m
                break
        else:
            raise SearchFailureError(f"no guess accepted for coordinate {j}")
    if not verify_solution(batch, x, p):
        raise SearchFailureError("recovered vector failed verification")
    return x


def make_decision_oracle(p: SystemParams):
    """Test-grade decision oracle: YES iff exact ML finds a verified solution."""

    search = make_exact_ml_oracle(p)

    def oracle(batch: SampleBatch) -> bool:
        return verify_solution(batch, search(batch), p)

    return oracle


def bdd_sample_count(p: SystemParams, r: float, sigma: float, d: float) -> int:
    """Sample count needed for a reliable ML digit at the implied SNR.

    Per-sample noise relative to a one-symbol signal difference combines the
    injected channel noise and the cross term from the target's offset.
    """
    rho = math.hypot(p.M * p.alpha / (r * math.sqrt(2)), d / sigma)
    if not rho < 1e150:  # so that 120 rho^2 is a finite float
        raise ParameterError(f"noise ratio {rho:.4g} is too large for a sample count")
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
    sigma = float(svd(bmat)[1][-1])

    eta_bound = smoothing_upper_bound(basis, eps)
    if r <= math.sqrt(2) * eta_bound:
        raise ParameterError(
            f"width r={r:.4g} violates r > sqrt(2)*smoothing bound "
            f"({math.sqrt(2) * eta_bound:.4g})")
    d_cap = p.M * sigma * p.alpha / (p.k**2 * r * math.sqrt(2))
    if inst.bound_d >= d_cap:
        raise ParameterError(
            f"bound_d={inst.bound_d:.4g} violates d < M*sigma*alpha/(k^2 r sqrt(2)) "
            f"= {d_cap:.4g}")
    claim7_ok = d_cap > math.sqrt(n) / math.sqrt(2)
    if not claim7_ok:
        warnings.warn(
            f"iteration-progress inequality fails: {d_cap:.4g} <= "
            f"{math.sqrt(n) / math.sqrt(2):.4g}", stacklevel=2)

    # One pseudo-inverse: the digits below and the dual B (B^T B)^-1 = (B^+)^T.
    binv = pseudo_inverse(bmat)
    dual = LatticeBasis(binv.T)
    # Statistical-hiding precondition: the cross-term-plus-noise width must
    # dominate the smoothing width of the scaled dual lattice.
    xi = p.k * inst.bound_d / sigma
    lhs = 1.0 / math.sqrt(1.0 / p.k**2 + (math.sqrt(2) * xi / (p.M * p.alpha)) ** 2)
    eta_dual_scaled = (r / p.k) * smoothing_upper_bound(dual, eps)
    if not (lhs >= p.k / math.sqrt(2) > eta_dual_scaled):
        raise ParameterError(
            f"statistical-hiding inequality fails: need "
            f"{lhs:.4g} >= {p.k / math.sqrt(2):.4g} > {eta_dual_scaled:.4g}")

    samples = bdd_sample_count(p, r, sigma, inst.bound_d)
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
    bits = np.arange(len(ambiguous))
    offset = p.M // 2

    for _ in range(3):
        for mask in range(2 ** len(ambiguous)):
            t0 = base.copy()
            t0[ambiguous] += np.copysign(1.0, frac[ambiguous]) * (mask >> bits & 1)
            coord = p.M * (z - t0) + offset
            v, _ = discrete_gaussian_sample(dual, r, rng, size=samples)
            if np.linalg.matrix_rank(v) < n:  # the oracle's channel would be singular
                raise ParameterError(
                    f"width r={r:.4g} is too narrow for the dual lattice: its "
                    f"{samples} Klein samples span fewer than {n} dimensions")
            a = p.k * v / r
            e = psi_sample(p.alpha / math.sqrt(2), rng, size=samples)
            y_samp = p.k * (v @ coord) / (r * p.M) + p.k * e / r
            batch = SampleBatch(a=a / p.M, y=y_samp)
            guess = np.asarray(mimo_oracle(batch), dtype=np.int64)
            coeffs = p.M * t0.astype(np.int64) + (guess - offset)
            point = bmat @ coeffs.astype(float)
            if np.linalg.norm(y - point) <= inst.bound_d * (1 + 1e-9):
                return point, coeffs
    raise SearchFailureError(
        "oracle answers never landed within the bounding distance")


def toy_bdd_setup(n: int, rng: np.random.Generator):
    """Rotated-Z^n toy family for exercising bdd_via_mimo end to end.

    All singular values equal 1, so the smoothing, distance-cap, progress and
    statistical-hiding preconditions reduce to scalar inequalities that
    M = 12, alpha = 3, k = r = 2.5 satisfy for n <= 4.  Returns (params,
    instance, planted closest point, width r).
    """
    M, alpha, k, r = 12, 3.0, 2.5, 2.5
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


def _binom_ci(errors: int, total: int):
    p_hat = errors / total
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def ber_experiment(p: SystemParams, trials: int, rng) -> list[dict]:
    """Monte Carlo symbol-error-rate comparison of Bob's SVD decoder with
    Eve's zero-forcing, LLL+Babai and, where M^n <= BER_ML_SPACE, exact ML.
    A chunk factors its channels in stacked calls, draws each trial's message,
    Bob's noise and Eve's noise in turn, and decodes in stacked products."""
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ParameterError(f"trials must be >= 1 and an integer, got {trials!r}")
    with_ml = p.M**p.n <= BER_ML_SPACE
    counts = dict.fromkeys(["bob", "zf", "babai"] + ["ml"] * with_ml, 0)
    for start in range(0, trials, BER_CHUNK):
        t = min(BER_CHUNK, trials - start)
        ch = make_instance(p, rng, t, eve=True)
        g_pinv = pseudo_inverse(ch.G)
        bases = lattice_bases(ch.G)
        reds = [lll_reduce(b) for b in bases]
        draws = [(random_message(p, rng), channel_noise(p, rng, p.m_rx),
                  channel_noise(p, rng, p.m_rx)) for _ in range(t)]
        x, e_b, e_e = map(np.stack, zip(*draws))
        counts["bob"] += int(np.sum(bob_decode(ch, transmit_to_bob(ch, x, e_b), p) != x))
        y_e = eve_receive(ch, x, e_e)
        counts["zf"] += int(np.sum(zf_decode(g_pinv, y_e, p.M).estimate != x))
        counts["babai"] += int(np.sum(babai_attack(reds, y_e, p.M).estimate != x))
        if with_ml:
            for g, y, basis, x_t in zip(ch.G, y_e, bases, x):
                est = exact_ml_decode(g, y, p.M, basis=basis).estimate
                counts["ml"] += int(np.sum(est != x_t))
    total = trials * p.n
    rows = []
    for method, errs in sorted(counts.items()):
        lo, hi = _binom_ci(errs, total)
        rows.append({"method": method, "n": p.n, "M": p.M, "alpha": p.alpha,
                     "k": p.k, "trials": trials, "ser": errs / total,
                     "ser_ci_low": lo, "ser_ci_high": hi})
    return rows
