import math

import numpy as np
import pytest
from scipy import stats

from csikey.distributions import psi_sample
from csikey.errors import DegenerateBasisError, ParameterError
from csikey.numerics import make_rng
from csikey.wiretap import (SampleBatch, SystemParams, WiretapInstance,
                            bob_decode, eve_receive, make_instance, precode,
                            r_dist_width, random_message, sample_A_dist,
                            sample_R_dist, transmit_to_bob)


def _params(**kw):
    base = dict(n=8, m_rx=8, M=4, alpha=0.1, k=1.0)
    base.update(kw)
    return SystemParams(**base)


def test_params_validation():
    with pytest.raises(ParameterError):
        _params(M=1)
    with pytest.raises(ParameterError):
        _params(k=0.0)
    with pytest.raises(ParameterError):
        _params(m_rx=8**3 + 1)
    with pytest.warns(UserWarning):
        _params(m_rx=8 * 16 + 1)


def test_wide_channel_rejected():
    # m_rx < n: A has rank below n, so Bob cannot separate the n streams
    with pytest.raises(DegenerateBasisError):
        make_instance(_params(n=8, m_rx=4), make_rng(0))


def test_default_power_matches_expected_norm():
    p = _params()
    # E||x||^2 for uniform symbols in [0, M) is n * (M-1)(2M-1)/6.
    assert p.P == pytest.approx(
        math.sqrt(p.n * (p.M - 1) * (2 * p.M - 1) / 6.0))


def test_instance_determinism_and_independence():
    p = _params()
    a = make_instance(p, make_rng(42))
    b = make_instance(p, make_rng(42))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert not np.array_equal(a.A, a.B)


def test_eve_channel_drawn_on_first_read():
    # make_instance keeps B's stream and draws nothing from it up front.
    p = _params()
    inst = make_instance(p, make_rng(11))
    assert "B" not in vars(inst)
    _, rng_b = make_rng(11).spawn(2)
    assert np.array_equal(inst.B, psi_sample(p.k, rng_b, size=(p.m_rx, p.n)))
    assert np.array_equal(inst.G, inst.B @ inst.svdA.V)


def test_instance_entry_variance():
    p = _params(n=4, m_rx=4)
    rng = make_rng(0)
    entries = np.concatenate(
        [make_instance(p, rng).A.ravel() for _ in range(1000)])
    assert np.var(entries) == pytest.approx(1.0 / (2 * math.pi), rel=0.03)


def test_precode_preserves_norm():
    p = _params()
    inst = make_instance(p, make_rng(1))
    x = random_message(p, make_rng(2))
    assert np.linalg.norm(precode(inst, x)) == pytest.approx(
        np.linalg.norm(x), rel=1e-9)


def test_noiseless_end_to_end():
    p = _params(noise_scale=0.0)
    rng = make_rng(3)
    for _ in range(50):
        inst = make_instance(p, rng)
        x = random_message(p, rng)
        y = transmit_to_bob(inst, x, p, rng)
        assert np.allclose(y, inst.A @ precode(inst, x))
        assert np.array_equal(bob_decode(inst, y, p), x)


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_noiseless_decoding_does_not_depend_on_channel_scale(scale):
    p = _params(k=scale, noise_scale=0.0)
    rng = make_rng(3)
    for _ in range(20):
        inst = make_instance(p, rng)
        x = random_message(p, rng)
        y = transmit_to_bob(inst, x, p, rng)
        assert np.array_equal(bob_decode(inst, y, p), x)


def test_bob_decode_clamps_far_out_of_range_estimates():
    inst = WiretapInstance(np.eye(8), 1.0, make_rng(0))
    y = np.array([1e30, -1e30, 2.0, 1e300, -1e300, 0.0, 3.0, 9.0])
    assert bob_decode(inst, y, _params()).tolist() == [3, 0, 2, 3, 0, 0, 3, 3]


def test_all_zero_channel_rejected():
    inst = WiretapInstance(np.zeros((8, 8)), 1.0, make_rng(0))
    with pytest.raises(DegenerateBasisError):
        bob_decode(inst, np.zeros(8), _params())


def test_channel_noise_variance():
    p = _params(n=8, m_rx=8)
    rng = make_rng(4)
    inst = make_instance(p, rng)
    x = random_message(p, rng)
    clean = inst.A @ precode(inst, x)
    res = np.concatenate([
        transmit_to_bob(inst, x, p, rng) - clean for _ in range(2000)])
    assert np.var(res) == pytest.approx(p.noise_width**2 / (2 * math.pi),
                                        rel=0.03)


def test_tiny_noise_still_exact():
    p = _params(alpha=1e-7)
    rng = make_rng(5)
    for _ in range(200):
        inst = make_instance(p, rng)
        x = random_message(p, rng)
        y = transmit_to_bob(inst, x, p, rng)
        assert np.array_equal(bob_decode(inst, y, p), x)


def test_eve_noiseless_and_invariance():
    p = _params(n=4, m_rx=4, noise_scale=0.0)
    rng = make_rng(6)
    inst = make_instance(p, rng)
    x = random_message(p, rng)
    y = eve_receive(inst, x, p, rng)
    assert np.allclose(y, inst.G @ x)
    entries = np.concatenate([make_instance(p, rng).G.ravel()
                              for _ in range(700)])
    se = np.std(entries) / math.sqrt(entries.size)
    assert abs(np.mean(entries)) < 3 * se
    assert stats.kstest(entries[:10**4], "norm",
                        args=(0.0, p.k / math.sqrt(2 * math.pi))).pvalue > 0.01


def test_sample_A_dist():
    p = _params(n=4, m_rx=4, M=4)
    rng = make_rng(7)
    x = np.array([1, 3, 0, 2])
    batch = sample_A_dist(x, p, rng, count=20000)
    # regression recovers x
    est, *_ = np.linalg.lstsq(batch.a, batch.y, rcond=None)
    assert np.max(np.abs(est - x)) < 0.5
    zero = sample_A_dist(np.zeros(4, dtype=int), p, rng, count=20000)
    assert np.var(zero.y) == pytest.approx(p.noise_width**2 / (2 * math.pi),
                                           rel=0.05)


def test_sample_A_dist_noise_override():
    p = _params(n=4, m_rx=4)
    rng = make_rng(8)
    batch = sample_A_dist(np.zeros(4, dtype=int), p, rng, count=20000,
                          noise_width=p.alpha)
    assert np.var(batch.y) == pytest.approx(p.alpha**2 / (2 * math.pi),
                                            rel=0.05)


def test_sample_R_dist_moments_and_independence():
    p = _params(n=4, m_rx=4)
    rng = make_rng(9)
    batch = sample_R_dist(p, rng, count=10**5)
    assert np.var(batch.y) == pytest.approx(
        r_dist_width(p)**2 / (2 * math.pi), rel=0.03)
    for j in range(4):
        corr = np.corrcoef(batch.a[:, j], batch.y)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(batch))


def test_A_R_moment_match_at_power_norm():
    # A-dist y-variance with ||x|| = P matches the R-dist construction.
    p = _params(n=4, m_rx=4)
    rng = make_rng(10)
    x = np.full(4, p.P / 2.0)  # ||x|| = P
    batch = sample_A_dist(x, p, rng, count=10**5, noise_width=p.alpha)
    ref = sample_R_dist(p, rng, count=10**5)
    assert np.var(batch.y) == pytest.approx(np.var(ref.y), rel=0.05)


def test_sample_batch_validation():
    with pytest.raises(ParameterError):
        SampleBatch(a=np.zeros((3, 2)), y=np.zeros(2))
    with pytest.raises(ParameterError):
        SampleBatch(a=np.full((2, 2), np.nan), y=np.zeros(2))
