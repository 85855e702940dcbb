import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from csikey import wiretap
from csikey.distributions import psi_sample
from csikey.errors import DegenerateBasisError, ParameterError
from csikey.numerics import make_rng, svd
from csikey.wiretap import (Channels, SystemParams, bob_decode,
                            channel_noise, eve_receive, make_instance,
                            random_message, sample_A_dist, transmit_to_bob)
from r_dist_reference import r_dist_width, sample_R_dist


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
    numpy_ints = _params(n=np.int64(8), m_rx=np.int32(8), M=np.int64(4))
    assert numpy_ints.P == _params().P


def test_params_are_frozen():
    p = _params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 1.0
    assert p.alpha == 0.1


def test_noise_width_belongs_to_its_params():
    # The width is cached on each params object; replace builds a new one.
    p = _params()
    assert p.noise_width == p.M * p.alpha
    assert dataclasses.replace(p, noise_scale=0.0).noise_width == 0
    assert p.noise_width == p.M * p.alpha


def test_wide_channel_rejected():
    # m_rx < n: A has rank below n, so Bob cannot separate the n streams
    with pytest.raises(DegenerateBasisError):
        make_instance(_params(n=8, m_rx=4), make_rng(0), 1)


def test_default_power_matches_expected_norm():
    p = _params()
    # E||x||^2 for uniform symbols in [0, M) is n * (M-1)(2M-1)/6.
    assert p.P == pytest.approx(
        math.sqrt(p.n * (p.M - 1) * (2 * p.M - 1) / 6.0))


def test_instance_determinism_and_independence():
    p = _params()
    a = make_instance(p, make_rng(42), 1, eve=True)
    b = make_instance(p, make_rng(42), 1, eve=True)
    assert all(np.array_equal(f, g) for f, g in zip(a, b))
    assert not np.array_equal(a.A, a.G)


def test_channels_come_from_two_child_streams():
    # A is drawn from the first child stream and B from the second, only
    # when Eve is simulated: G = B V.
    p = _params()
    ch = make_instance(p, make_rng(11), 1, eve=True)
    rng_a, rng_b = make_rng(11).spawn(2)
    assert np.array_equal(ch.A[0], psi_sample(p.k, rng_a, size=(p.m_rx, p.n)))
    assert np.array_equal(
        ch.G[0], psi_sample(p.k, rng_b, size=(p.m_rx, p.n)) @ ch.V[0])


@pytest.mark.parametrize("eve", [False, True])
def test_eve_channel_drawn_only_when_asked(eve, monkeypatch):
    draws = []

    def recording(width, rng, size=None):
        draws.append(size)
        return psi_sample(width, rng, size=size)

    monkeypatch.setattr(wiretap, "_psi_sample", recording)  # the unchecked draw
    ch = make_instance(_params(), make_rng(11), 3, eve=eve)
    assert len(draws) == (6 if eve else 3)
    assert (ch.G is None) is not eve


def _channel(ch, t):
    """Channel t of the stack ch, as 2-D matrices."""
    return Channels(*(f[t] for f in ch))


@pytest.mark.parametrize("t", [1, 2, 5])
def test_stacked_channels_equal_single_draws(t):
    # t channels at once are the channels of t calls of one, bit for bit,
    # and neither takes a draw from rng itself.
    p = _params()
    rng, ref_rng = make_rng(12), make_rng(12)
    ch = make_instance(p, rng, t, eve=True)
    assert rng.integers(2**62) == make_rng(12).integers(2**62)
    for i in range(t):
        one = make_instance(p, ref_rng, 1, eve=True)
        for f, g in zip(_channel(ch, i), one, strict=True):
            assert np.array_equal(f, g[0])
    # Both spawned the same children, so the next child is the same too.
    assert rng.spawn(1)[0].integers(2**62) == ref_rng.spawn(1)[0].integers(2**62)


@pytest.mark.parametrize("t,m_rx,n", [(40, 4, 4), (64, 16, 16), (2, 16, 16)])
def test_stacked_transmission_and_decoding_equal_per_channel_calls(t, m_rx, n):
    p = _params(n=n, m_rx=m_rx, M=16, alpha=0.01)
    rng = make_rng(13)
    ch = make_instance(p, rng, t, eve=True)
    x = rng.integers(0, p.M, size=(t, n))
    e_b, e_e = channel_noise(p, rng, (2, t, m_rx))
    y_b = transmit_to_bob(ch, x, e_b)
    y_e = eve_receive(ch, x, e_e)
    x_hat = bob_decode(ch, y_b, p)
    assert y_b.shape == y_e.shape == (t, m_rx) and x_hat.shape == (t, n)
    for i in range(t):
        one = _channel(ch, i)
        assert np.array_equal(y_b[i], transmit_to_bob(one, x[i], e_b[i]))
        assert np.array_equal(y_e[i], eve_receive(one, x[i], e_e[i]))
        assert np.array_equal(x_hat[i], bob_decode(one, y_b[i], p))
        # and the per-channel calls are the plain per-matrix products
        assert np.array_equal(y_b[i], one.A @ (one.V @ x[i].astype(float)) + e_b[i])
        assert np.array_equal(y_e[i], one.G @ x[i].astype(float) + e_e[i])


def test_instance_entry_variance():
    p = _params(n=4, m_rx=4)
    entries = make_instance(p, make_rng(0), 1000).A.ravel()
    assert np.var(entries) == pytest.approx(1.0 / (2 * math.pi), rel=0.03)


def test_precoder_preserves_norm():
    p = _params()
    ch = make_instance(p, make_rng(1), 1)
    x = random_message(p, make_rng(2))
    assert np.linalg.norm(ch.V[0] @ x) == pytest.approx(
        np.linalg.norm(x), rel=1e-9)


def test_noiseless_end_to_end():
    p = _params(noise_scale=0.0)
    rng = make_rng(3)
    for _ in range(50):
        ch = make_instance(p, rng, 1)
        x = random_message(p, rng)
        y = transmit_to_bob(ch, x, channel_noise(p, rng, p.m_rx))
        assert np.allclose(y, ch.A @ ch.V @ x)
        assert np.array_equal(bob_decode(ch, y, p), [x])


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
def test_noiseless_decoding_does_not_depend_on_channel_scale(scale):
    p = _params(k=scale, noise_scale=0.0)
    rng = make_rng(3)
    for _ in range(20):
        ch = make_instance(p, rng, 1)
        x = random_message(p, rng)
        y = transmit_to_bob(ch, x, channel_noise(p, rng, p.m_rx))
        assert np.array_equal(bob_decode(ch, y, p), [x])


def _factored(a):
    return Channels(a, *svd(a), None)


def test_bob_decode_clamps_far_out_of_range_estimates():
    y = np.array([1e30, -1e30, 2.0, 1e300, -1e300, 0.0, 3.0, 9.0])
    got = bob_decode(_factored(np.eye(8)), y, _params())
    assert got.tolist() == [3, 0, 2, 3, 0, 0, 3, 3]


def test_all_zero_channel_rejected():
    with pytest.raises(DegenerateBasisError):
        bob_decode(_factored(np.zeros((8, 8))), np.zeros(8), _params())


def test_channel_noise_variance():
    p = _params(n=8, m_rx=8)
    rng = make_rng(4)
    ch = make_instance(p, rng, 1)
    x = random_message(p, rng)
    clean = transmit_to_bob(ch, x, np.zeros(p.m_rx))
    res = transmit_to_bob(ch, x, channel_noise(p, rng, (2000, p.m_rx))) - clean
    assert res.shape == (2000, p.m_rx)
    assert np.var(res) == pytest.approx(p.noise_width**2 / (2 * math.pi),
                                        rel=0.03)


def test_noiseless_channel_draws_nothing():
    p = _params(noise_scale=0.0)
    rng = make_rng(4)
    assert np.array_equal(channel_noise(p, rng, (3, p.m_rx)), np.zeros((3, p.m_rx)))
    assert rng.integers(2**62) == make_rng(4).integers(2**62)


def test_tiny_noise_still_exact():
    p = _params(alpha=1e-7)
    rng = make_rng(5)
    for _ in range(200):
        ch = make_instance(p, rng, 1)
        x = random_message(p, rng)
        y = transmit_to_bob(ch, x, channel_noise(p, rng, p.m_rx))
        assert np.array_equal(bob_decode(ch, y, p), [x])


def test_eve_noiseless_and_invariance():
    p = _params(n=4, m_rx=4, noise_scale=0.0)
    rng = make_rng(6)
    ch = make_instance(p, rng, 1, eve=True)
    x = random_message(p, rng)
    y = eve_receive(ch, x, channel_noise(p, rng, p.m_rx))
    assert np.allclose(y, ch.G @ x)
    entries = make_instance(p, rng, 700, eve=True).G.ravel()
    se = np.std(entries) / math.sqrt(entries.size)
    assert abs(np.mean(entries)) < 3 * se
    assert stats.kstest(entries[:10**4], "norm",
                        args=(0.0, p.k / math.sqrt(2 * math.pi))).pvalue > 0.01


def test_sample_A_dist():
    p = _params(n=4, m_rx=4, M=4)
    rng = make_rng(7)
    x = np.array([1, 3, 0, 2])
    a, y = sample_A_dist(x, p, rng, count=20000, noise_width=p.noise_width)
    # regression recovers x
    est, *_ = np.linalg.lstsq(a, y, rcond=None)
    assert np.max(np.abs(est - x)) < 0.5
    _, y0 = sample_A_dist(np.zeros(4, dtype=int), p, rng, count=20000,
                          noise_width=p.noise_width)
    assert np.var(y0) == pytest.approx(p.noise_width**2 / (2 * math.pi),
                                           rel=0.05)


def test_sample_A_dist_noise_override():
    p = _params(n=4, m_rx=4)
    rng = make_rng(8)
    _, y = sample_A_dist(np.zeros(4, dtype=int), p, rng, count=20000,
                         noise_width=p.alpha)
    assert np.var(y) == pytest.approx(p.alpha**2 / (2 * math.pi),
                                            rel=0.05)


def test_sample_R_dist_moments_and_independence():
    p = _params(n=4, m_rx=4)
    rng = make_rng(9)
    a, y = sample_R_dist(p, rng, count=10**5)
    assert np.var(y) == pytest.approx(
        r_dist_width(p)**2 / (2 * math.pi), rel=0.03)
    for j in range(4):
        corr = np.corrcoef(a[:, j], y)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(y))


def test_A_R_moment_match_at_power_norm():
    # A-dist y-variance with ||x|| = P matches the R-dist construction.
    p = _params(n=4, m_rx=4)
    rng = make_rng(10)
    x = np.full(4, p.P / 2.0)  # ||x|| = P
    _, y = sample_A_dist(x, p, rng, count=10**5, noise_width=p.alpha)
    _, y_ref = sample_R_dist(p, rng, count=10**5)
    assert np.var(y) == pytest.approx(np.var(y_ref), rel=0.05)
