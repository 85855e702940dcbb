"""Metamorphic scale tests: multiplying both the channel width k and the
noise parameter alpha by 2^j is exact in floating point, so every decision
the library takes, and hence every count and key it reports, must stay the
same.  Any difference is a real dependence of the numerics on scale.
"""

import math
from dataclasses import replace

import pytest

from csikey.attacks import ber_experiment
from csikey.numerics import make_rng
from csikey.protocols import run_key_agreement
from csikey.wiretap import SystemParams


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
