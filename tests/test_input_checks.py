"""Every library input check raises its typed error on the input it guards."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csikey
from csikey.attacks import (babai_attack, bdd_sample_count, bdd_via_mimo,
                            ber_experiment, decision_to_search, error_handling_search,
                            exact_ml_decode, make_decision_oracle,
                            make_exact_ml_oracle, toy_bdd_setup,
                            verify_solution, zf_decode)
from csikey.distributions import (discrete_gaussian_sample, psi_sample,
                                  sample_discrete_gaussian_int,
                                  smoothing_upper_bound, tvd_gaussians)
from csikey.errors import (DegenerateBasisError, DimensionGuardError,
                           NumericalError, ParameterError, SearchFailureError)
from csikey.lattice import (LatticeBasis, closest_point, enumerate_cvp,
                            int_rank_det, lattice_bases, lll_reduce, nearest_plane,
                            original_coeffs)
from csikey.numerics import gram_schmidt, make_rng, pseudo_inverse, svd
from csikey.params import required_log2M, secrecy_capacity
from csikey.protocols import (bits_to_hex, decrypt, encode_symbols, encrypt,
                              min_message_count, run_cipher, run_key_agreement,
                              universal_hash)
from csikey.wiretap import (SystemParams, bob_decode, csi_invert, eve_receive,
                            make_instance, sample_A_dist, transmit_to_bob)
from r_dist_reference import r_dist_width, sample_R_dist

P = SystemParams(n=4, m_rx=8, M=4, alpha=1.0)
RNG = make_rng(0)
EMPTY = np.zeros((0, 4)), np.zeros(0)
BATCH = np.ones((8, 4)), np.ones(8)  # a well-formed batch at P's n = 4
EYE = LatticeBasis(np.eye(2))
TOY = SystemParams(n=2, m_rx=2, M=12, alpha=3.0, k=2.5)  # toy_bdd_setup's
CH = make_instance(P, make_rng(1), 1, eve=True)  # one channel at P: 8 x 4
CH2 = make_instance(P, make_rng(2), 2, eve=True)  # two channels at P
T3 = np.eye(3, dtype=np.int64)  # an identity LLL transform at n = 3
BATCH_A = r"batch a must have shape \(\*, 4\), got"
INT64 = r"must be integers in \[-9223372036854775808, 9223372036854775807\], got"
SYMBOL = r"must be integers in \[0, 3\], got"  # symbols at P's M = 4
BIT = r"must be integers in \[0, 1\], got"
RX = r"must have shape \(\.\.\., 8\), got \(3,\)"  # a length-3 vector at P's m_rx = 8
INT = r"must be an integer in \[1, 2\^53\]"  # need_int's default range from 1
POS = r"must be a real in \(0, inf\)"  # need_real's positive reals
STACKS = r"a stack of matrices \(2, \d, \d\) and one of vectors \(3, \d\) do not broadcast"
M_INT = r"M must be an integer in \[2, 2\^53\]"  # SystemParams' rule for M
NOISE = r"noise of shape \(3, 8\) does not broadcast against the channel output \(2, 8\)"


def _padding_answer(right_from):
    """error_handling_search at n = 3 whose oracle answers x - 0.02 for
    x = [0, 1, 1] from call right_from on, and a wrong vector before: the
    answer passes verification, but it is not a symbol vector."""
    p = SystemParams(n=3, m_rx=3, M=4, alpha=0.1)
    rng = make_rng(0)
    x = np.array([0, 1, 1])
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha / 2)
    calls = []

    def oracle(b):
        calls.append(b)
        return x - 0.02 if len(calls) >= right_from else (x + 1) % p.M

    return error_handling_search(batch, oracle, p, rng)


def _toy_bdd(n, oracle=None, scale=1.0):
    """bdd_via_mimo on a toy_bdd_setup(n) instance, its target scaled by
    scale; exact ML's oracle unless another is given."""
    p, basis, target, bound_d, _, r = toy_bdd_setup(n, make_rng(0))
    return bdd_via_mimo(basis, target * scale, bound_d, r,
                        oracle or make_exact_ml_oracle(p), p, make_rng(1))

CHECKS = {  # name: (error, message pattern, call)
    # attacks
    "bdd-bound-zero": (ParameterError, rf"bound_d {POS}", lambda:
        bdd_via_mimo(EYE, np.zeros(2), 0.0, 2.5, None, P, RNG)),
    "bdd-basis-nan": (NumericalError, "non-finite entries", lambda: bdd_via_mimo(
        LatticeBasis([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2), 0.1,
        2.5, None, P, RNG)),
    "bdd-basis-3x2": (ParameterError, r"basis must have shape \(2, 2\), got \(3, 2\)",
        lambda: bdd_via_mimo(LatticeBasis(np.eye(3)[:, :2]), np.zeros(2), 0.1,
                             2.5, None, TOY, RNG)),
    "bdd-target-length": (ParameterError, r"target must have shape \(2,\), got \(3,\)",
        lambda: bdd_via_mimo(EYE, np.zeros(3), 0.1, 2.5, None, TOY, RNG)),
    "bdd-target-2d": (ParameterError, r"target must have shape \(2,\), got \(2, 1\)",
        lambda: bdd_via_mimo(EYE, np.zeros((2, 1)), 0.1, 2.5, None, TOY, RNG)),
    "bdd-target-inf": (ParameterError, "target must be finite, got inf", lambda:
        bdd_via_mimo(EYE, np.array([np.inf, 0.0]), 0.1, 2.5, None, TOY, RNG)),
    "bdd-r-bool": (ParameterError, rf"r {POS}, got True", lambda:
        bdd_via_mimo(EYE, np.zeros(2), 0.1, True, None, TOY, RNG)),
    "bdd-r-inf": (ParameterError, rf"r {POS}, got inf", lambda:
        bdd_via_mimo(EYE, np.zeros(2), 0.1, np.inf, None, TOY, RNG)),
    "toy-bdd-n-fractional": (ParameterError, r"n must be an integer in \[1, 4\], "
        "got 2.5", lambda: toy_bdd_setup(2.5, RNG)),
    "toy-bdd-n-5": (ParameterError, r"n must be an integer in \[1, 4\], got 5",
                    lambda: toy_bdd_setup(5, RNG)),
    "bdd-sample-count-r-zero": (ParameterError, rf"r {POS}, got 0.0", lambda:
        bdd_sample_count(P, 0.0, 1.0, 0.1)),
    "bdd-sample-count-sigma-zero": (ParameterError, rf"sigma {POS}, got 0.0",
        lambda: bdd_sample_count(P, 1.0, 0.0, 0.1)),
    "verify-empty-batch": (ParameterError, "empty batch", lambda:
        verify_solution(EMPTY, np.zeros(4), P)),
    "verify-batch-a-1d": (ParameterError, rf"{BATCH_A} \(4,\)", lambda:
        verify_solution((np.zeros(4), np.zeros(1)), np.zeros(4), P)),
    "verify-batch-a-3d": (ParameterError, rf"{BATCH_A} \(2, 2, 4\)", lambda:
        verify_solution((np.zeros((2, 2, 4)), np.zeros(2)), np.zeros(4), P)),
    "verify-batch-y-2d": (ParameterError,
        r"batch y must have shape \(2,\), got \(2, 1\)", lambda:
        verify_solution((np.zeros((2, 4)), np.zeros((2, 1))), np.zeros(4), P)),
    "verify-batch-row-counts": (ParameterError,
        r"batch y must have shape \(3,\), got \(2,\)", lambda:
        verify_solution((np.zeros((3, 4)), np.zeros(2)), np.zeros(4), P)),
    "verify-batch-nan": (ParameterError, "batch a must be finite, got nan", lambda:
        verify_solution((np.full((2, 4), np.nan), np.zeros(2)), np.zeros(4), P)),
    "verify-noise-width-nan": (ParameterError, rf"noise_width {POS}, got nan",
        lambda: verify_solution(BATCH, np.zeros(4), P, np.nan)),
    "verify-noise-width-negative": (ParameterError, rf"noise_width {POS}, got -1.0",
        lambda: verify_solution(BATCH, np.zeros(4), P, -1.0)),
    "verify-candidate-length": (ParameterError,
        r"candidate must have shape \(4,\), got \(3,\)",
        lambda: verify_solution(BATCH, np.zeros(3), P)),
    "verify-candidate-nan": (ParameterError, "candidate must be finite, got nan",
        lambda: verify_solution(BATCH, [np.nan, 0, 0, 0], P)),
    "padding-empty-batch": (ParameterError, "empty batch", lambda:
        error_handling_search(EMPTY, make_exact_ml_oracle(P), P, RNG)),
    "padding-batch-columns": (ParameterError, rf"{BATCH_A} \(8, 3\)", lambda:
        error_handling_search((np.ones((8, 3)), np.ones(8)),
                              make_exact_ml_oracle(P), P, RNG)),
    "decision-batch-columns": (ParameterError, rf"{BATCH_A} \(8, 3\)", lambda:
        decision_to_search((np.ones((8, 3)), np.ones(8)),
                           make_decision_oracle(P), P, RNG)),
    "decision-M-above-16": (DimensionGuardError, "M <= 16", lambda:
        decision_to_search(EMPTY, make_decision_oracle(P),
                           SystemParams(n=4, m_rx=8, M=32, alpha=1.0), RNG)),
    "ml-M-zero": (ParameterError, "empty coefficient box", lambda:
        exact_ml_decode(np.eye(2), np.array([0.3, 0.4]), 0)),
    "ml-M-negative": (ParameterError, "empty coefficient box", lambda:
        exact_ml_decode(np.eye(2), np.array([0.3, 0.4]), -3)),
    "ber-zero-trials": (ParameterError, rf"trials {INT}", lambda:
        ber_experiment(P, 0, RNG)),
    "ber-fractional-trials": (ParameterError, rf"trials {INT}, got 2.5",
                              lambda: ber_experiment(P, 2.5, RNG)),
    "ber-trials-bool": (ParameterError, rf"trials {INT}, got True",
                        lambda: ber_experiment(P, True, RNG)),
    "ml-target-length": (ParameterError, r"target must have shape \(2,\), got \(3,\)",
        lambda: exact_ml_decode(np.eye(2), np.zeros(3), 4)),
    "ml-g-vector": (DegenerateBasisError, ">= 1 column", lambda:
        exact_ml_decode(np.ones(2), np.zeros(2), 4)),
    "zf-y-length": (ParameterError, r"y must have shape \(\.\.\., 4\), got \(3,\)",
                    lambda: zf_decode(np.eye(4), np.zeros(3), 4)),
    "bdd-sample-count-alpha-1e300": (ParameterError, "too large for a sample count",
        lambda: bdd_sample_count(SystemParams(n=4, m_rx=4, M=4, alpha=1e300),
                                 1.0, 1.0, 0.1)),
    "padding-answer-fractional": (ParameterError,
        r"oracle answer must be integers in \[0, 3\], got -0.02",
        lambda: _padding_answer(1)),
    "padded-answer-fractional": (ParameterError,
        r"oracle answer must be integers in \[0, 3\], got -0.02",
        lambda: _padding_answer(2)),
    "bdd-oracle-answer-fractional": (ParameterError,
        r"oracle answer must be integers in \[0, 11\], got 0.5",
        lambda: _toy_bdd(2, lambda batch: np.full(2, 0.5))),
    "bdd-target-digits-1e25": (ParameterError,
        r"target digits must be integers in \[-750599937895080, 750599937895080\]",
        lambda: _toy_bdd(3, scale=1e25)),
    "zf-stacks-broadcast": (ParameterError, STACKS, lambda:
        zf_decode(pseudo_inverse(CH2.G), np.zeros((3, 8)), 4)),
    "babai-y-stack": (ParameterError, r"y must have shape \(2, 8\), got \(3, 8\)",
        lambda: babai_attack([lll_reduce(b) for b in lattice_bases(CH2.G)],
                             np.zeros((3, 8)), 4)),
    "babai-y-1d": (ParameterError, r"y must have shape \(1, 8\), got \(8,\)",
        lambda: babai_attack([lll_reduce(LatticeBasis(CH2.G[0]))], np.zeros(8), 4)),
    "babai-no-reductions": (ParameterError, "at least one reduction",
                            lambda: babai_attack([], np.zeros((0, 8)), 4)),
    "ber-noise-width-inf": (ParameterError, rf"width {POS}, got inf", lambda:
        ber_experiment(SystemParams(n=2, m_rx=2, M=4, alpha=1e308), 1, RNG)),
    "zf-M-fractional": (ParameterError, rf"{M_INT}, got 2.5", lambda:
        zf_decode(np.eye(2), np.array([0.4, 3.0]), 2.5)),
    "zf-M-zero": (ParameterError, rf"{M_INT}, got 0", lambda:
        zf_decode(np.eye(2), np.array([0.4, 3.0]), 0)),
    "babai-M-bool": (ParameterError, rf"{M_INT}, got True", lambda: babai_attack(
        [lll_reduce(LatticeBasis(np.eye(2)))], np.array([[0.4, 3.0]]), True)),
    "babai-M-negative": (ParameterError, rf"{M_INT}, got -3", lambda: babai_attack(
        [lll_reduce(LatticeBasis(np.eye(2)))], np.array([[0.4, 3.0]]), -3)),
    # distributions
    "psi-width-zero": (ParameterError, rf"width {POS}", lambda:
        psi_sample(0.0, RNG)),
    "psi-width-nan": (ParameterError, rf"width {POS}, got nan", lambda:
        psi_sample(float("nan"), RNG, 2)),
    "psi-width-inf": (ParameterError, rf"width {POS}, got inf", lambda:
        psi_sample(float("inf"), RNG, 3)),
    "psi-width-bool": (ParameterError, rf"width {POS}, got True", lambda:
        psi_sample(True, RNG, 2)),
    "tvd-width-negative": (ParameterError, rf"w2 {POS}", lambda:
        tvd_gaussians(1.0, -1.0)),
    "tvd-width-inf": (ParameterError, rf"w1 {POS}, got inf",
                      lambda: tvd_gaussians(float("inf"), 1.0)),
    "tvd-width-bool": (ParameterError, rf"w1 {POS}, got True",
                       lambda: tvd_gaussians(True, 2)),
    "dgauss-int-width-zero": (ParameterError, r"width must be a real in \(0, 2\^46\)",
        lambda: sample_discrete_gaussian_int(0.0, 0.0, RNG)),
    "dgauss-int-width-inf": (ParameterError, r"width must be a real in \(0, 2\^46\), "
        "got inf", lambda: sample_discrete_gaussian_int(float("inf"), 0.0, RNG)),
    "dgauss-int-width-1e17": (ParameterError, r"width must be a real in \(0, 2\^46\), "
        r"got 1e\+17", lambda: sample_discrete_gaussian_int(1e17, 0.0, RNG)),
    "dgauss-int-width-1e300": (ParameterError, r"width must be a real in \(0, 2\^46\), "
        r"got 1e\+300", lambda: sample_discrete_gaussian_int(1e300, 0.0, RNG)),
    "dgauss-int-center-2^53": (ParameterError, r"\|center\| <= 2\^52", lambda:
        sample_discrete_gaussian_int(1.0, 2.0**53, RNG)),
    "dgauss-int-center-2^63": (ParameterError, r"\|center\| <= 2\^52", lambda:
        sample_discrete_gaussian_int(1.0, 2.0**63, RNG)),
    "dgauss-int-center-1e300": (ParameterError, r"\|center\| <= 2\^52", lambda:
        sample_discrete_gaussian_int(1.0, np.array([0.0, 1e300]), RNG)),
    "dgauss-int-center-2d": (ParameterError,
        r"center must have shape \(\*,\), got \(2, 2\)",
        lambda: sample_discrete_gaussian_int(2.5, np.zeros((2, 2)), RNG)),
    "klein-r-zero": (ParameterError, rf"r {POS}", lambda:
        discrete_gaussian_sample(LatticeBasis(np.eye(2)), 0.0, RNG)),
    "klein-size-fractional": (ParameterError, rf"size {INT}, got 2.5", lambda:
        discrete_gaussian_sample(LatticeBasis(np.eye(2)), 2.0, RNG, 2.5)),
    "smoothing-epsilon-zero": (ParameterError, rf"epsilon {POS}", lambda:
        smoothing_upper_bound(LatticeBasis(np.eye(2)), 0.0)),
    # lattice
    "basis-vector": (DegenerateBasisError, ">= 1 column", lambda:
        LatticeBasis(np.ones(3))),
    "basis-no-columns": (DegenerateBasisError, ">= 1 column", lambda:
        LatticeBasis(np.zeros((3, 0)))),
    "closest-point-empty-box": (ParameterError, "empty coefficient box",
        lambda: closest_point(LatticeBasis(np.eye(2)), np.zeros(2), (2, 1))),
    "closest-point-fractional-box": (ParameterError,
        r"box low must be an integer in \[-inf, 2\^53\], got 0.5",
        lambda: closest_point(LatticeBasis(np.eye(2)), np.array([0.6, 0.6]),
                              (0.5, 0.7))),
    "int-rank-det-fractional": (ParameterError, rf"m {INT64} 0.5", lambda:
        int_rank_det([[0.5, 1], [1, 2]])),
    "int-rank-det-vector": (ParameterError, r"m must have shape \(\*, \*\), got \(3,\)",
        lambda: int_rank_det(np.array([1, 2, 3]))),
    "coeffs-fractional": (ParameterError, rf"coeffs {INT64} 1.5", lambda:
        original_coeffs(T3, [1.5, 2, 3])),
    "coeffs-nan": (ParameterError, rf"coeffs {INT64} nan", lambda:
        original_coeffs(T3, [np.nan, 2, 3])),
    "coeffs-length": (ParameterError, r"coeffs must have shape \(3,\), got \(2,\)",
        lambda: original_coeffs(T3, [1, 2])),
    "coeffs-stack-rows": (ParameterError,
        r"coeffs must have shape \(2, 3\), got \(3, 3\)",
        lambda: original_coeffs(np.stack([T3, T3]), np.zeros((3, 3)))),
    "closest-point-target-length": (ParameterError,
        r"target must have shape \(2,\), got \(1,\)",
        lambda: closest_point(LatticeBasis(np.eye(2)), np.zeros(1))),
    "nearest-plane-target-length": (ParameterError,
        r"targets must have shape \(\.\.\., 2\), got \(1, 3\)", lambda:
        nearest_plane(LatticeBasis(np.eye(2)), np.zeros((1, 3)), lambda i, c: c)),
    "cvp-rank-9": (DimensionGuardError, "exact CVP limited", lambda:
        enumerate_cvp(LatticeBasis(np.eye(9)), np.zeros(9))),
    # numerics
    "gso-wide-matrix": (DegenerateBasisError, "3 columns in dimension 2",
                        lambda: gram_schmidt(np.ones((2, 3)))),
    "gso-vector": (DegenerateBasisError, ">= 1 column", lambda:
        gram_schmidt(np.ones(3))),
    "gso-no-columns": (DegenerateBasisError, ">= 1 column", lambda:
        gram_schmidt(np.zeros((3, 0)))),
    "pinv-0x3": (DegenerateBasisError, r"shape \(0, 3\) has rank 0", lambda:
        pseudo_inverse(np.zeros((0, 3)))),
    "pinv-3x0": (DegenerateBasisError, r"shape \(3, 0\) has rank 0", lambda:
        pseudo_inverse(np.zeros((3, 0)))),
    "svd-vector": (NumericalError, r"shape \(3,\) is not a matrix", lambda:
        svd(np.ones(3))),
    "rng-seed-negative": (ParameterError, "seed must be an integer >= 0, got -1",
                          lambda: make_rng(-1)),
    "rng-seed-fractional": (ParameterError, "seed must be an integer >= 0, got 2.5",
                            lambda: make_rng(2.5)),
    "rng-seed-bool": (ParameterError, "seed must be an integer >= 0, got True",
                      lambda: make_rng(True)),
    "rng-seed-nan": (ParameterError, "seed must be an integer >= 0, got nan",
                     lambda: make_rng(float("nan"))),
    # params
    "capacity-n-zero": (ParameterError, rf"n {INT}", lambda:
        secrecy_capacity(0, 4.0)),
    "capacity-n-fractional": (ParameterError, rf"n {INT}, got 2.5", lambda:
        secrecy_capacity(2.5, 4)),
    "capacity-n-bool": (ParameterError, rf"n {INT}, got True", lambda:
        secrecy_capacity(True, 4)),
    "capacity-log2M-zero": (ParameterError, rf"log2M {POS}", lambda:
        secrecy_capacity(4, 0.0)),
    "capacity-log2M-nan": (ParameterError, rf"log2M {POS}, got nan", lambda:
        secrecy_capacity(4, float("nan"))),
    "capacity-log2M-inf": (ParameterError, rf"log2M {POS}, got inf", lambda:
        secrecy_capacity(4, float("inf"))),
    "required-log2M-n-10^400": (ParameterError,
        r"n must be an integer in \[4, 2\^53\], got a 1329-bit integer",
        lambda: required_log2M(10**400)),
    "required-log2M-n-fractional": (ParameterError,
        r"n must be an integer in \[4, 2\^53\], got 4.5",
        lambda: required_log2M(4.5)),
    # protocols
    "toeplitz-seed-length": (ParameterError,
        r"len\(bits\) must be an integer in \[1, 5\], got 6", lambda:
        universal_hash(np.zeros(5), np.zeros(6))),
    "toeplitz-2d": (ParameterError, r"seed must have shape \(\*,\), got \(2, 5\)",
        lambda: universal_hash(np.zeros((2, 5)), np.zeros((2, 3)))),
    "toeplitz-seed-fractional": (ParameterError, rf"seed {BIT} 2.7", lambda:
        universal_hash([2.7, 0, 1, 0], [1, 0])),
    "toeplitz-bits-3": (ParameterError, rf"bits {BIT} 3", lambda:
        universal_hash(np.zeros(4), [3, 0])),
    "toeplitz-seed-nan": (ParameterError, rf"seed {BIT} nan", lambda:
        universal_hash([np.nan, 0, 1], [1])),
    "hex-bits-2": (ParameterError, rf"bits {BIT} 2", lambda: bits_to_hex([2, 3])),
    "hex-bits-fractional": (ParameterError, rf"bits {BIT} 1.7",
                            lambda: bits_to_hex([1.7, 0])),
    "hex-bits-256": (ParameterError, rf"bits {BIT} 256", lambda: bits_to_hex([256, 1])),
    "message-count-eta-10^400": (ParameterError, rf"eta {INT}, got a 1329-bit integer",
        lambda: min_message_count(P, 10**400)),
    "message-count-eta-fractional": (ParameterError, rf"eta {INT}, got 2.5",
        lambda: min_message_count(P, 2.5)),
    "encode-symbol-negative": (ParameterError, rf"x {SYMBOL} -1",
                               lambda: encode_symbols(np.array([-1, 3]), 4)),
    "encode-symbol-above-M": (ParameterError, rf"x {SYMBOL} 5",
                              lambda: encode_symbols(np.array([5, 3]), 4)),
    "encode-symbol-fractional": (ParameterError, rf"x {SYMBOL} 2.7",
                                 lambda: encode_symbols([2.7, 1.0], 4)),
    "encode-symbol-nan": (ParameterError, rf"x {SYMBOL} nan",
                          lambda: encode_symbols([float("nan"), 1], 4)),
    "encode-symbols-2d": (ParameterError, r"x must have shape \(\*,\), got \(1, 2\)",
                          lambda: encode_symbols([[1, 2]], 4)),
    "encode-symbols-ragged": (ParameterError, "x must be a numeric array, got",
                              lambda: encode_symbols([[1, 2], [3]], 4)),
    "key-agreement-eta-zero": (ParameterError, rf"eta {INT}", lambda:
        run_key_agreement(P, 0, "none", RNG)),
    "key-agreement-eta-fractional": (ParameterError, rf"eta {INT}, got 2.5", lambda:
        run_key_agreement(P, 2.5, "none", RNG)),
    "key-agreement-noise-width-inf": (ParameterError, rf"width {POS}, got inf", lambda:
        run_key_agreement(SystemParams(n=2, m_rx=2, M=4, alpha=1e308), 4, "none", RNG)),
    "cipher-noise-width-inf": (ParameterError, rf"width {POS}, got inf", lambda:
        run_cipher(SystemParams(n=2, m_rx=2, M=4, alpha=1e308), 1, RNG)),
    "cipher-secret-shape": (ParameterError, r"s must have shape \(4,\), got \(3,\)",
        lambda: encrypt(P, np.zeros(3), np.zeros(4), None, np.zeros(8))),
    "cipher-secret-range": (ParameterError, rf"s {SYMBOL} 4", lambda:
        decrypt(P, np.array([0, 1, 2, 4]), np.zeros(8), None)),
    "cipher-secret-fractional": (ParameterError, rf"s {SYMBOL} 1.5", lambda:
        decrypt(P, [1.5, 2, 0, 1], np.zeros(8), None)),
    "cipher-secret-nan": (ParameterError, rf"s {SYMBOL} nan", lambda:
        decrypt(P, [float("nan"), 1, 0, 0], np.zeros(8), None)),
    "cipher-secret-1e30": (ParameterError, rf"s {SYMBOL} 1e\+30", lambda:
        decrypt(P, [1e30, 1, 0, 0], np.zeros(8), None)),
    "encrypt-not-bits": (ParameterError, rf"m {BIT} 2", lambda:
        encrypt(P, np.zeros(4), np.array([0, 1, 2, 0]), CH, np.zeros(8))),
    "encrypt-fractional-bits": (ParameterError, rf"m {BIT} 0.5", lambda:
        encrypt(P, np.zeros(4), [0.5, 1, 0, 1], CH, np.zeros(8))),
    "encrypt-noise-length": (ParameterError, rf"e {RX}", lambda:
        encrypt(P, np.zeros(4), np.zeros(4), CH, np.zeros(3))),
    "cipher-trials-zero": (ParameterError, rf"trials {INT}, got 0",
        lambda: run_cipher(P, 0, RNG)),
    "decrypt-y-length": (ParameterError, rf"y {RX}",
        lambda: decrypt(P, np.zeros(4), np.zeros(3), CH)),
    # wiretap; the R-distribution is a test helper (tests/r_dist_reference.py)
    "params-n-zero": (ParameterError, rf"n {INT}", lambda:
        SystemParams(n=0, m_rx=1, M=4, alpha=1.0)),
    "params-n-10^400": (ParameterError, rf"n {INT}, got a 1329-bit integer", lambda:
        SystemParams(n=10**400, m_rx=8, M=4, alpha=1.0)),
    "params-n-bool": (ParameterError, rf"n {INT}, got True", lambda:
        SystemParams(n=True, m_rx=1, M=4, alpha=1.0)),
    "params-alpha-bool": (ParameterError, rf"alpha {POS}, got True", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=True)),
    "params-n-fractional": (ParameterError, "n must be an integer", lambda:
        SystemParams(n=4.5, m_rx=8, M=16, alpha=1.0)),
    "params-m-rx-fractional": (ParameterError, "m_rx must be an integer", lambda:
        SystemParams(n=4, m_rx=8.5, M=16, alpha=1.0)),
    "params-M-fractional": (ParameterError, "M must be an integer", lambda:
        SystemParams(n=4, m_rx=8, M=4.5, alpha=1.0)),
    "params-M-20001-bits": (ParameterError,
        r"M must be an integer in \[2, 2\^53\], got a 20001-bit integer", lambda:
        SystemParams(n=4, m_rx=8, M=2**20000, alpha=1.0)),
    "params-noise-scale-negative": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=-1.0)),
    "params-noise-scale-inf": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=float("inf"))),
    "params-noise-scale-nan": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=float("nan"))),
    "make-instance-t-zero": (ParameterError, rf"t {INT}", lambda:
        make_instance(P, RNG, 0)),
    "make-instance-t-negative": (ParameterError, rf"t {INT}",
                                 lambda: make_instance(P, RNG, -1)),
    "make-instance-t-fractional": (ParameterError, rf"t {INT}",
                                   lambda: make_instance(P, RNG, 2.5)),
    "make-instance-t-bool": (ParameterError, rf"t {INT}, got True",
                             lambda: make_instance(P, RNG, True)),
    "precode-dimension": (ParameterError,
        r"x must have shape \(\.\.\., 4\), got \(3,\)",
        lambda: transmit_to_bob(make_instance(P, RNG, 1), np.zeros(3), 0.0)),
    "transmit-e-length": (ParameterError, rf"e {RX}",
        lambda: transmit_to_bob(CH, np.zeros(4), np.zeros(3))),
    "bob-decode-y-length": (ParameterError, rf"y {RX}",
        lambda: bob_decode(CH, np.zeros(3), P)),
    "csi-invert-y-length": (ParameterError, rf"y {RX}",
        lambda: csi_invert(CH, np.zeros(3))),
    "eve-x-length": (ParameterError, r"x must have shape \(\.\.\., 4\), got \(3,\)",
        lambda: eve_receive(CH, np.zeros(3), np.zeros(8))),
    "eve-e-length": (ParameterError, rf"e {RX}",
        lambda: eve_receive(CH, np.zeros(4), np.zeros(3))),
    "eve-no-G": (ParameterError, "these channels have no G", lambda:
        eve_receive(make_instance(P, RNG, 1), np.zeros(4), np.zeros(8))),
    "transmit-stacks-broadcast": (ParameterError, STACKS, lambda:
        transmit_to_bob(CH2, np.zeros((3, 4)), np.zeros(8))),
    "eve-stacks-broadcast": (ParameterError, STACKS, lambda:
        eve_receive(CH2, np.zeros((3, 4)), np.zeros(8))),
    "bob-decode-stacks-broadcast": (ParameterError, STACKS, lambda:
        bob_decode(CH2, np.zeros((3, 8)), P)),
    "transmit-noise-broadcast": (ParameterError, NOISE, lambda:
        transmit_to_bob(CH2, np.zeros((2, 4)), np.zeros((3, 8)))),
    "eve-noise-broadcast": (ParameterError, NOISE, lambda:
        eve_receive(CH2, np.zeros((2, 4)), np.zeros((3, 8)))),
    "A-dist-count-zero": (ParameterError, rf"count {INT}", lambda:
        sample_A_dist(np.zeros(4), P, RNG, count=0, noise_width=P.alpha)),
    "A-dist-count-fractional": (ParameterError, rf"count {INT}, got 2.5", lambda:
        sample_A_dist(np.zeros(4), P, RNG, count=2.5, noise_width=P.alpha)),
    "A-dist-noise-width-negative": (ParameterError, rf"width {POS}",
        lambda: sample_A_dist(np.zeros(4), P, RNG, count=3, noise_width=-1.0)),
    "A-dist-x-length": (ParameterError, r"x must have shape \(4,\), got \(3,\)", lambda:
        sample_A_dist(np.zeros(3), P, RNG, count=3, noise_width=P.alpha)),
    "A-dist-x-column": (ParameterError, r"x must have shape \(4,\), got \(4, 1\)",
        lambda: sample_A_dist(np.zeros((4, 1)), P, RNG, count=3, noise_width=P.alpha)),
    "A-dist-x-nan": (ParameterError, "x must be finite, got nan", lambda:
        sample_A_dist([np.nan, 0, 0, 0], P, RNG, count=3, noise_width=P.alpha)),
    "A-dist-x-string": (ParameterError, "x must be a numeric array, got 'abcd'", lambda:
        sample_A_dist("abcd", P, RNG, count=3, noise_width=P.alpha)),
    "A-dist-x-ragged": (ParameterError, r"x must be a numeric array, got \[\[1, 2\], \[3\]\]",
        lambda: sample_A_dist([[1, 2], [3]], P, RNG, count=3, noise_width=P.alpha)),
    "R-dist-count-zero": (ParameterError, rf"count {INT}", lambda:
        sample_R_dist(P, RNG, count=0)),
    "R-dist-count-fractional": (ParameterError, rf"count {INT}, got 2.5", lambda:
        sample_R_dist(P, RNG, 2.5)),
}


@pytest.mark.parametrize("error,message,call", CHECKS.values(), ids=CHECKS)
def test_input_check_raises_typed_error(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_scalar_rules_live_in_errors_only():
    # need_int and need_real hold the integer and real rules; a module that
    # tests numbers.Integral or numbers.Real itself derives them again.
    src = Path(csikey.__file__).resolve().parent
    users = [f.name for f in sorted(src.glob("*.py"))
             if re.search(r"numbers\.(Integral|Real)", f.read_text())]
    assert users == ["errors.py"]


def test_attacks_cast_to_int64_through_need_ints():
    # Oracle answers and BDD digits become int64 through need_ints, which
    # rejects what a bare cast would truncate or wrap.
    src = Path(csikey.__file__).resolve().parent / "attacks.py"
    casts = re.findall(r"asarray\([^)]*int64|astype\(np\.int64\)", src.read_text())
    assert casts == []


def test_array_rules_live_in_errors_only():
    # need_array and need_ints hold the shape, finiteness and integer-range
    # rules for arrays; a module that compares a shape itself derives them again.
    src = Path(csikey.__file__).resolve().parent
    users = [f.name for f in sorted(src.glob("*.py")) if f.name != "errors.py"
             and re.search(r"\.(shape|ndim) *!=|symbol_array", f.read_text())]
    assert users == []


@pytest.mark.parametrize("alpha", [1e-170, 1e155])
def test_padding_grid_reaches_the_oracle_at_extreme_alpha(alpha):
    # alpha^2 / n^2 underflows at 1e-170 and alpha^2 overflows at 1e155; the
    # grid, in units of alpha, forms neither.  At 1e155 alpha dwarfs k, so
    # the verifier cannot tell the hypotheses apart: no answer is asserted.
    p = SystemParams(n=4, m_rx=4, M=4, alpha=alpha)
    rng = make_rng(0)
    x = rng.integers(0, p.M, size=p.n)
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=alpha / 2)
    calls = []

    def oracle(b):  # wrong on its first two calls, right from the third
        calls.append(b)
        return x if len(calls) >= 3 else (x + 1) % p.M

    try:
        got = error_handling_search(batch, oracle, p, rng)
    except SearchFailureError:
        got = None
    assert calls
    if alpha < 1:
        assert np.array_equal(got, x) and len(calls) == 3


def test_int_rank_det_of_a_matrix_with_no_rows():
    assert int_rank_det(np.zeros((0, 0), dtype=np.int64)) == (0, 1)
    assert int_rank_det(np.zeros((0, 3), dtype=np.int64)) == (0, 0)


def test_r_dist_at_k_1e154_returns():
    # (kP)^2 overflows here; the width is taken without squaring.
    p = SystemParams(n=4, m_rx=8, M=4, alpha=1.0, k=1e154)
    assert r_dist_width(p) == pytest.approx(1e154 * p.P)
    assert np.all(np.isfinite(sample_R_dist(p, RNG, count=3)[1]))


HANGS = {  # name: (message pattern, call); each of these inputs used to hang
    "dgauss-int-center-nan": ("center must be finite",
                              "sample_discrete_gaussian_int(2.0, nan, rng)"),
    "dgauss-int-center-inf": ("center must be finite",
                              "sample_discrete_gaussian_int(2.0, inf, rng)"),
    "dgauss-int-width-nan": (r"width must be a real in \(0, 2\^46\), got nan",
                             "sample_discrete_gaussian_int(nan, 0.0, rng)"),
    "klein-r-nan": (rf"r {POS}, got nan", "discrete_gaussian_sample("
                    "LatticeBasis(np.eye(2)), nan, rng, 3)"),
}
HANG_PROGRAM = """
from math import inf, nan
import numpy as np
from csikey.distributions import (discrete_gaussian_sample,
                                  sample_discrete_gaussian_int)
from csikey.errors import ParameterError
from csikey.lattice import LatticeBasis
rng = np.random.default_rng(0)
try:
    {call}
except ParameterError as exc:
    print(exc)
"""


@pytest.mark.parametrize("message,call", HANGS.values(), ids=HANGS)
def test_input_check_raises_instead_of_hanging(message, call):
    # A fresh interpreter under a time limit, so a regression fails the test
    # instead of stalling the suite.
    src = str(Path(csikey.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", HANG_PROGRAM.format(call=call)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert re.search(message, proc.stdout), proc.stdout
