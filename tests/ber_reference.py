"""Trial-by-trial reference for attacks.ber_experiment: every trial draws
one channel, factors it with per-matrix calls (SVD, pseudo-inverse,
Gram-Schmidt, the per-basis LLL), transmits and decodes with per-matrix
products, and draws from rng in the same order.
"""

import numpy as np

from csikey.attacks import BER_ML_SPACE, _binom_ci, exact_ml_decode
from csikey.lattice import LatticeBasis
from csikey.numerics import pseudo_inverse
from csikey.wiretap import channel_noise, make_instance, random_message
from lattice_reference import babai_nearest_plane, lll_per_basis


def reference_ber_experiment(p, trials, rng):
    methods = {"zf", "babai"} | ({"ml"} if p.M**p.n <= BER_ML_SPACE else set())
    counts = dict.fromkeys(["bob", *methods], 0)
    for _ in range(trials):
        a, u, sigma, v, g = (f[0] for f in make_instance(p, rng, 1, eve=True))
        x = random_message(p, rng)
        y_b = a @ (v @ x.astype(float)) + channel_noise(p, rng, p.m_rx)
        est = np.rint(u.T @ y_b / sigma).astype(np.int64)
        counts["bob"] += int(np.sum(np.clip(est, 0, p.M - 1) != x))
        y_e = g @ x.astype(float) + channel_noise(p, rng, p.m_rx)
        if "zf" in methods:
            est = np.rint(pseudo_inverse(g) @ y_e).astype(np.int64)
            counts["zf"] += int(np.sum(np.clip(est, 0, p.M - 1) != x))
        if "babai" in methods:
            red = lll_per_basis(LatticeBasis(g))
            _, coeffs = babai_nearest_plane(red.reduced, y_e)
            est = [int(c) for c in red.transform @ coeffs.astype(object)]
            counts["babai"] += int(np.sum(np.clip(est, 0, p.M - 1) != x))
        if "ml" in methods:
            est = exact_ml_decode(g, y_e, p.M).estimate
            counts["ml"] += int(np.sum(est != x))
    total = trials * p.n
    rows = []
    for m, errs in sorted(counts.items()):
        lo, hi = _binom_ci(errs, total)
        rows.append({"method": m, "n": p.n, "M": p.M, "alpha": p.alpha,
                     "k": p.k, "trials": trials, "ser": errs / total,
                     "ser_ci_low": lo, "ser_ci_high": hi})
    return rows
