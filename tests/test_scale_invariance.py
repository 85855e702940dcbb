"""Metamorphic scale tests: multiplying both the channel width k and the
noise parameter alpha by 2^j is exact in floating point, so every decision
the library takes, and hence every count and key it reports, must stay the
same.  The same holds for the lattice layer when a basis, its target and a
sampling width are scaled together.  Any difference is a real dependence of
the numerics on scale.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from csikey.attacks import (ber_experiment, error_handling_search,
                            exact_ml_decode)
from csikey.distributions import discrete_gaussian_sample
from csikey.errors import SearchFailureError
from csikey.lattice import (LatticeBasis, enumerate_cvp, lll_reduce,
                            successive_minima)
from csikey.numerics import make_rng
from csikey.protocols import run_key_agreement
from csikey.wiretap import (SystemParams, channel_noise, make_instance,
                            random_message, sample_A_dist)


def _attack_point(n, log2m):
    k = 0.002
    return SystemParams(n=n, m_rx=n, M=2**log2m,
                        alpha=1.05 * math.sqrt(n) * k**2, k=k)


def _scaled(p, j):
    return replace(p, k=p.k * 2.0**j, alpha=p.alpha * 2.0**j)


def _ser_triples(p, trials, seed):
    return [(r["method"], r["ser"], r["ser_ci_low"], r["ser_ci_high"])
            for r in ber_experiment(p, trials, make_rng(seed))]


BER_POINTS = {  # the attack-n4-ml, CLI default and attack-n16 points
    "n4": (_attack_point(4, 4), 70),
    "n8": (SystemParams(n=8, m_rx=16, M=16, alpha=1.0), 20),
    "n16": (_attack_point(16, 8), 8),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("point", BER_POINTS)
def test_ber_experiment_does_not_depend_on_scale(point, seed):
    p, trials = BER_POINTS[point]
    want = _ser_triples(p, trials, seed)
    for j in (8, -8, 100, -100):
        assert _ser_triples(_scaled(p, j), trials, seed) == want, j


@pytest.mark.parametrize("coder", ["none", "repetition-3"])
def test_key_agreement_does_not_depend_on_scale(coder):
    p = SystemParams(n=8, m_rx=16, M=16, alpha=0.05)

    def run(q):
        tr = run_key_agreement(q, 32, coder, make_rng(5))
        return tr["messages"], tr["alice_key"], tr["bob_key"]

    want = run(p)
    assert any(m["alice"] != m["bob"] for m in want[0])  # some messages fail
    for j in (8, -100, 300):
        assert run(_scaled(p, j)) == want, j


def _padded_batches(p, seed):
    """Every batch error_handling_search hands an oracle that is always
    wrong, on samples of noise width alpha / 2, until it gives up."""
    rng = make_rng(seed)
    x = random_message(p, rng)
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha / 2)
    calls = []

    def wrong(b):
        calls.append(b)
        return (x + 1) % p.M

    with pytest.raises(SearchFailureError):
        error_handling_search(batch, wrong, p, rng)
    return calls


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_padding_grid_scales_exactly(n):
    p = SystemParams(n=n, m_rx=n, M=4, alpha=0.05)
    want = _padded_batches(p, n)
    for j in (-511, 511):
        got = _padded_batches(_scaled(p, j), n)
        assert len(got) == len(want), j
        for (a, y), (a0, y0) in zip(got, want):
            assert np.array_equal(a, a0 * 2.0**j), j
            assert np.array_equal(y, y0 * 2.0**j), j


LATTICE_SCALES = (8, -8, 100, -100, 300, -300)


def _lattice_layer(g, y, r, seed):
    """Everything the lattice layer decides about Eve's channel g and her
    received word y: LLL's reduced basis, transform and swaps, exact ML's
    estimate, the successive minima, the exact CVP coefficients and Klein's
    coefficients at width r."""
    red = lll_reduce(LatticeBasis(g))
    _, klein = discrete_gaussian_sample(LatticeBasis(g), r, make_rng(seed), 40)
    return (red.reduced.matrix, red.transform, red.swaps,
            exact_ml_decode(g, y, 16).estimate,
            successive_minima(LatticeBasis(g)),
            enumerate_cvp(LatticeBasis(g), y)[1], klein)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_layer_does_not_depend_on_scale(n):
    p = _attack_point(n, 4)
    for seed in range(8):
        rng = make_rng(seed)
        g = make_instance(p, rng, 1, eve=True).G[0]
        y = g @ random_message(p, rng) + channel_noise(p, rng, p.m_rx)
        # The geometric mean of the extreme Gram-Schmidt norms puts Klein's
        # per-level widths on both sides of 1, so both integer samplers run.
        norms2 = LatticeBasis(g).gso[2]
        r = math.sqrt(math.sqrt(norms2.min() * norms2.max()))
        reduced, transform, swaps, ml, minima, cvp, klein = _lattice_layer(
            g, y, r, seed)
        for j in LATTICE_SCALES:
            s = 2.0**j
            got = _lattice_layer(g * s, y * s, r * s, seed)
            assert np.array_equal(got[0], reduced * s), (seed, j)
            assert np.array_equal(got[1], transform), (seed, j)
            assert got[2] == swaps, (seed, j)
            assert np.array_equal(got[3], ml), (seed, j)
            assert np.array_equal(got[4], minima * s), (seed, j)
            assert np.array_equal(got[5], cvp), (seed, j)
            assert np.array_equal(got[6], klein), (seed, j)
