"""Every library input check raises its typed error on the input it guards."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csikey
from csikey.attacks import (BddInstance, ber_experiment, decision_to_search,
                            error_handling_search, exact_ml_decode,
                            make_decision_oracle, verify_solution)
from csikey.distributions import (discrete_gaussian_sample, psi_sample,
                                  sample_discrete_gaussian_int,
                                  smoothing_upper_bound, tvd_gaussians)
from csikey.errors import (DegenerateBasisError, DimensionGuardError,
                           ParameterError)
from csikey.lattice import LatticeBasis, closest_point, enumerate_cvp, int_rank_det
from csikey.numerics import gram_schmidt, make_rng
from csikey.params import secrecy_capacity
from csikey.protocols import (decrypt, encode_symbols, encrypt, run_key_agreement,
                              universal_hash)
from csikey.wiretap import (SampleBatch, SystemParams, make_instance,
                            sample_A_dist, sample_R_dist, transmit_to_bob)

P = SystemParams(n=4, m_rx=8, M=4, alpha=1.0)
RNG = make_rng(0)
EMPTY = SampleBatch(a=np.zeros((0, 4)), y=np.zeros(0))

CHECKS = {  # name: (error, message pattern, call)
    # attacks
    "bdd-bound-zero": (ParameterError, "bound_d must be positive", lambda:
        BddInstance(LatticeBasis(np.eye(2)), np.zeros(2), 0.0)),
    "verify-empty-batch": (ParameterError, "empty batch", lambda:
        verify_solution(EMPTY, np.zeros(4), P)),
    "decision-M-above-16": (DimensionGuardError, "M <= 16", lambda:
        decision_to_search(EMPTY, make_decision_oracle(P),
                           SystemParams(n=4, m_rx=8, M=32, alpha=1.0), RNG)),
    "ml-M-zero": (ParameterError, "empty coefficient box", lambda:
        exact_ml_decode(np.eye(2), np.array([0.3, 0.4]), 0)),
    "ml-M-negative": (ParameterError, "empty coefficient box", lambda:
        exact_ml_decode(np.eye(2), np.array([0.3, 0.4]), -3)),
    "ber-zero-trials": (ParameterError, "trials must be >= 1", lambda:
        ber_experiment(P, 0, RNG)),
    "padding-grid-alpha-underflow": (ParameterError, "underflows", lambda:
        error_handling_search(EMPTY, None, SystemParams(n=4, m_rx=4, M=4,
                                                        alpha=1e-170), RNG)),
    "padding-grid-alpha-overflow": (ParameterError, r"alpha\^2 overflows", lambda:
        error_handling_search(EMPTY, None, SystemParams(n=4, m_rx=4, M=4,
                                                        alpha=1e155), RNG)),
    # distributions
    "psi-width-zero": (ParameterError, "width must be positive", lambda:
        psi_sample(0.0, RNG)),
    "psi-width-nan": (ParameterError, "width must be positive", lambda:
        psi_sample(float("nan"), RNG, 2)),
    "tvd-width-negative": (ParameterError, "widths must be positive", lambda:
        tvd_gaussians(1.0, -1.0)),
    "tvd-width-inf": (ParameterError, "widths must be positive and finite",
                      lambda: tvd_gaussians(float("inf"), 1.0)),
    "dgauss-int-width-zero": (ParameterError, "width must be positive", lambda:
        sample_discrete_gaussian_int(0.0, 0.0, RNG)),
    "dgauss-int-width-inf": (ParameterError, "width must be positive and finite",
        lambda: sample_discrete_gaussian_int(float("inf"), 0.0, RNG)),
    "klein-r-zero": (ParameterError, "width r must be positive", lambda:
        discrete_gaussian_sample(LatticeBasis(np.eye(2)), 0.0, RNG)),
    "smoothing-epsilon-zero": (ParameterError, "epsilon must be positive",
                               lambda: smoothing_upper_bound(np.eye(2), 0.0)),
    # lattice
    "basis-vector": (DegenerateBasisError, ">= 1 column", lambda:
        LatticeBasis(np.ones(3))),
    "basis-no-columns": (DegenerateBasisError, ">= 1 column", lambda:
        LatticeBasis(np.zeros((3, 0)))),
    "closest-point-empty-box": (ParameterError, "empty coefficient box",
        lambda: closest_point(LatticeBasis(np.eye(2)), np.zeros(2), (2, 1))),
    "closest-point-fractional-box": (ParameterError, "needs integer bounds",
        lambda: closest_point(LatticeBasis(np.eye(2)), np.array([0.6, 0.6]),
                              (0.5, 0.7))),
    "int-rank-det-fractional": (ParameterError, "needs integer entries", lambda:
        int_rank_det([[0.5, 1], [1, 2]])),
    "cvp-rank-9": (DimensionGuardError, "exact CVP limited", lambda:
        enumerate_cvp(LatticeBasis(np.eye(9)), np.zeros(9))),
    # numerics
    "gso-wide-matrix": (DegenerateBasisError, "3 columns in dimension 2",
                        lambda: gram_schmidt(np.ones((2, 3)))),
    "rng-seed-negative": (ParameterError, "seed must be >= 0",
                          lambda: make_rng(-1)),
    # params
    "capacity-n-zero": (ParameterError, "need n >= 1", lambda:
        secrecy_capacity(0, 4.0)),
    "capacity-log2M-zero": (ParameterError, "log2M > 0", lambda:
        secrecy_capacity(4, 0.0)),
    "capacity-log2M-nan": (ParameterError, "finite log2M > 0", lambda:
        secrecy_capacity(4, float("nan"))),
    "capacity-log2M-inf": (ParameterError, "finite log2M > 0", lambda:
        secrecy_capacity(4, float("inf"))),
    # protocols
    "toeplitz-seed-length": (ParameterError, "seed length", lambda:
        universal_hash(np.zeros(5), np.zeros(6))),
    "encode-symbol-negative": (ParameterError, r"symbols must lie in \[0, M\)",
                               lambda: encode_symbols(np.array([-1, 3]), 4)),
    "encode-symbol-above-M": (ParameterError, r"symbols must lie in \[0, M\)",
                              lambda: encode_symbols(np.array([5, 3]), 4)),
    "key-agreement-eta-zero": (ParameterError, "eta must be >= 1", lambda:
        run_key_agreement(P, 0, "none", RNG)),
    "cipher-secret-shape": (ParameterError, "one symbol per antenna", lambda:
        encrypt(P, np.zeros(3), np.zeros(4), None, RNG)),
    "cipher-secret-range": (ParameterError, r"lie in \[0, M\)", lambda:
        decrypt(P, np.array([0, 1, 2, 4]), np.zeros(8), None)),
    "encrypt-not-bits": (ParameterError, "bit vector", lambda:
        encrypt(P, np.zeros(4), np.array([0, 1, 2, 0]),
                make_instance(P, RNG, 1), RNG)),
    # wiretap
    "params-n-zero": (ParameterError, "n must be >= 1", lambda:
        SystemParams(n=0, m_rx=1, M=4, alpha=1.0)),
    "params-n-fractional": (ParameterError, "n must be an integer", lambda:
        SystemParams(n=4.5, m_rx=8, M=16, alpha=1.0)),
    "params-m-rx-fractional": (ParameterError, "m_rx must be an integer", lambda:
        SystemParams(n=4, m_rx=8.5, M=16, alpha=1.0)),
    "params-M-fractional": (ParameterError, "M must be an integer", lambda:
        SystemParams(n=4, m_rx=8, M=4.5, alpha=1.0)),
    "params-M-20001-bits": (ParameterError, r"got a 20001-bit M", lambda:
        SystemParams(n=4, m_rx=8, M=2**20000, alpha=1.0)),
    "params-noise-scale-negative": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=-1.0)),
    "params-noise-scale-inf": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=float("inf"))),
    "params-noise-scale-nan": (ParameterError, "noise_scale must be", lambda:
        SystemParams(n=4, m_rx=8, M=4, alpha=1.0, noise_scale=float("nan"))),
    "precode-dimension": (ParameterError, "message dimension", lambda:
        transmit_to_bob(make_instance(P, RNG, 1), np.zeros(3), 0.0)),
    "A-dist-count-zero": (ParameterError, "count must be >= 1", lambda:
        sample_A_dist(np.zeros(4), P, RNG, count=0, noise_width=P.alpha)),
    "A-dist-noise-width-negative": (ParameterError, "width must be positive",
        lambda: sample_A_dist(np.zeros(4), P, RNG, count=3, noise_width=-1.0)),
    "R-dist-count-zero": (ParameterError, "count must be >= 1", lambda:
        sample_R_dist(P, RNG, count=0)),
}


@pytest.mark.parametrize("error,message,call", CHECKS.values(), ids=CHECKS)
def test_input_check_raises_typed_error(error, message, call):
    with pytest.raises(error, match=message):
        call()


HANGS = {  # name: (message pattern, call); each of these inputs used to hang
    "dgauss-int-center-nan": ("center must be finite",
                              "sample_discrete_gaussian_int(2.0, nan, rng)"),
    "dgauss-int-center-inf": ("center must be finite",
                              "sample_discrete_gaussian_int(2.0, inf, rng)"),
    "dgauss-int-width-nan": ("width must be positive and finite",
                             "sample_discrete_gaussian_int(nan, 0.0, rng)"),
    "klein-r-nan": ("width r must be positive", "discrete_gaussian_sample("
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
