import math

import numpy as np
import pytest

from csikey import attacks, cli
from csikey.attacks import (BddInstance, BerResult, bdd_sample_count,
                            bdd_via_mimo, ber_experiment, babai_attack,
                            decision_to_search, error_handling_search,
                            exact_ml_decode, make_decision_oracle,
                            make_exact_ml_oracle, toy_bdd_setup,
                            verify_solution, zf_decode)
from csikey.errors import (ConfigurationError, DegenerateBasisError,
                           DimensionGuardError, ReductionFailureError)
from csikey.lattice import LatticeBasis, enumerate_cvp, lll_reduce
from csikey.numerics import make_rng, pseudo_inverse
from csikey.wiretap import SystemParams, sample_A_dist, sample_R_dist
from ber_reference import reference_ber_experiment
from lattice_reference import grid_ml


def _params(**kw):
    base = dict(n=4, m_rx=4, M=4, alpha=0.05, k=1.0)
    base.update(kw)
    return SystemParams(**base)


def _clean_channel(p, rng, count=64):
    x = rng.integers(0, p.M, size=p.n)
    g = rng.normal(size=(count, p.n))
    e = rng.normal(size=count) * 0.01
    return x, g, g @ x + e


def test_zf_recovers_at_high_snr():
    p = _params()
    rng = make_rng(0)
    for _ in range(20):
        x, g, y = _clean_channel(p, rng)
        assert np.array_equal(zf_decode(pseudo_inverse(g), y, p.M).estimate, x)


def test_zf_clamps_far_out_of_range_estimates():
    y = np.array([1e30, -1e30, 2.0, 1e300])
    assert zf_decode(np.eye(4), y, 4).estimate.tolist() == [3, 0, 2, 3]


def test_babai_recovers_at_high_snr():
    p = _params()
    rng = make_rng(1)
    for _ in range(20):
        x, g, y = _clean_channel(p, rng, count=4)
        red = lll_reduce(LatticeBasis(g))
        assert np.array_equal(babai_attack(red, y, p.M).estimate, x)


def test_exact_ml_matches_brute_force():
    p = _params()
    rng = make_rng(2)
    for _ in range(10):
        g = rng.normal(size=(8, 4))
        y = rng.normal(size=8) * 2.0
        got = exact_ml_decode(g, y, p.M).estimate
        grid = np.array(np.meshgrid(*[np.arange(p.M)] * 4,
                                    indexing="ij")).reshape(4, -1)
        dists = np.sum((g @ grid - y[:, None]) ** 2, axis=0)
        best = grid[:, np.argmin(dists)]
        assert np.sum((g @ got - y) ** 2) == pytest.approx(
            float(np.min(dists)), abs=1e-9)
        assert np.array_equal(got, best)


def test_exact_ml_matches_grid_on_ber_channels(monkeypatch):
    # Every ML call of the first 10 `ber` seeds at n=4, M=16 and the
    # minimum-noise point (40 trials each) agrees with the M^n grid.
    calls = []

    def checked(g, y, M):
        out = exact_ml_decode(g, y, M)
        assert np.array_equal(out.estimate, grid_ml(g, y, M))
        calls.append(M)
        return out

    monkeypatch.setattr(attacks, "exact_ml_decode", checked)
    k = 0.002
    alpha = 1.05 * math.sqrt(4) * k**2
    for seed in range(10):
        assert cli.main(["ber", "--n", "4", "--m-rx", "4", "--log2m", "4",
                         "--k", repr(k), "--alpha", repr(alpha),
                         "--trials", "40", "--seed", str(seed)]) == 0
    assert calls == [16] * 400


@pytest.mark.parametrize("noise", [1.0, 1e2, 1e5])
def test_exact_ml_matches_grid_at_any_noise(noise):
    # At high noise the answer sits on the box boundary.
    rng = make_rng(20)
    for n in (2, 3, 4):
        for _ in range(25):
            M = int(rng.integers(2, 9))
            g = rng.normal(size=(2 * n, n))
            x = rng.integers(0, M, size=n)
            y = g @ x + 0.1 * noise * rng.normal(size=2 * n)
            assert np.array_equal(exact_ml_decode(g, y, M).estimate,
                                  grid_ml(g, y, M))


def test_exact_ml_tie_lexicographic():
    # (0.5, 0.5) is equidistant from the four corners of [0, 1]^2.
    got = exact_ml_decode(np.eye(2), np.array([0.5, 0.5]), 4).estimate
    assert np.array_equal(got, [0, 0])


def test_exact_ml_rank_deficient_channel_raises():
    with pytest.raises(DegenerateBasisError):
        exact_ml_decode(np.ones((4, 2)), np.ones(4), 4)


def test_exact_ml_space_guard():
    with pytest.raises(DimensionGuardError):
        exact_ml_decode(np.ones((2, 10)), np.ones(2), 8)


def test_verify_solution_accepts_and_rejects():
    p = _params(n=16, m_rx=16)
    rng = make_rng(3)
    acc = rej = 0
    trials = 200
    for _ in range(trials):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        acc += verify_solution(batch, x, p, noise_width=p.alpha)
        wrong = x.copy()
        wrong[0] = (wrong[0] + 1) % p.M
        rej += not verify_solution(batch, wrong, p, noise_width=p.alpha)
    assert acc == trials and rej == trials


def test_error_handling_search_with_unknown_beta():
    p = _params()
    rng = make_rng(4)
    oracle = make_exact_ml_oracle(p)
    for _ in range(20):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n,
                              noise_width=p.alpha / 2)
        assert np.array_equal(error_handling_search(batch, oracle, p, rng), x)


def test_decision_to_search_recovers():
    p = _params()
    rng = make_rng(5)
    oracle = make_decision_oracle(p, noise_width=p.alpha)
    for _ in range(20):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        assert np.array_equal(
            decision_to_search(batch, oracle, p, rng, noise_width=p.alpha), x)


def test_decision_to_search_rejects_structure_free():
    p = _params()
    rng = make_rng(6)
    oracle = make_decision_oracle(p, noise_width=p.alpha)
    batch = sample_R_dist(p, rng, count=64 * p.n)
    with pytest.raises(ReductionFailureError):
        decision_to_search(batch, oracle, p, rng, noise_width=p.alpha)


def test_bdd_precondition_errors():
    rng = make_rng(7)
    p, inst, _, r = toy_bdd_setup(3, rng)
    oracle = make_exact_ml_oracle(p)
    with pytest.raises(ConfigurationError):
        bdd_via_mimo(inst, 0.5, oracle, p, rng)  # r below smoothing bound
    wide = BddInstance(inst.basis, inst.target, bound_d=10.0)
    with pytest.raises(ConfigurationError):
        bdd_via_mimo(wide, r, oracle, p, rng)  # bound above the distance cap


def test_bdd_via_mimo_matches_enumeration():
    rng = make_rng(8)
    for _ in range(5):
        p, inst, planted, r = toy_bdd_setup(4, rng)
        point, coeffs = bdd_via_mimo(inst, r, make_exact_ml_oracle(p), p, rng)
        ref, _ = enumerate_cvp(inst.basis, inst.target)
        assert np.allclose(point, ref, atol=1e-6)
        assert np.allclose(point, planted, atol=1e-6)
        assert np.allclose(inst.basis.matrix @ coeffs.astype(float), point)


def test_bdd_sample_count_grows_with_noise():
    p = _params(M=12, alpha=3.0, k=2.5)
    lo = bdd_sample_count(p, r=2.5, sigma=1.0, d=0.1)
    hi = bdd_sample_count(SystemParams(n=4, m_rx=4, M=12, alpha=6.0, k=2.5),
                          r=2.5, sigma=1.0, d=0.1)
    assert hi > lo


def test_ber_experiment_counts_and_determinism():
    p = _params(n=4, m_rx=8, M=4, alpha=0.2)
    res1 = ber_experiment(p, 50, ["zf", "babai", "ml"], make_rng(9), seed=9)
    res2 = ber_experiment(p, 50, ["zf", "babai", "ml"], make_rng(9), seed=9)
    assert [r.ser for r in res1] == [r.ser for r in res2]
    by_method = {r.method: r for r in res1}
    assert set(by_method) == {"bob", "zf", "babai", "ml"}
    for r in res1:
        assert isinstance(r, BerResult)
        assert 0.0 <= r.ser_ci_low <= r.ser <= r.ser_ci_high <= 1.0
    # ML is the optimal decoder for Eve: never worse than ZF here
    assert by_method["ml"].ser <= by_method["zf"].ser + 1e-12


def test_ber_experiment_noiseless_all_exact():
    p = _params(n=4, m_rx=8)
    res = ber_experiment(p, 20, ["zf", "babai"], make_rng(10), noise_scale=0.0)
    assert all(r.ser == 0.0 for r in res)


def _attack_point(n, log2m):
    k = 0.002
    return SystemParams(n=n, m_rx=n, M=2**log2m,
                        alpha=1.05 * math.sqrt(n) * k**2, k=k)


def _assert_matches_reference(p, trials, methods, seed, noise_scale=1.0):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = ber_experiment(p, trials, methods, rng, seed=seed,
                         noise_scale=noise_scale)
    want = reference_ber_experiment(p, trials, methods, ref_rng, seed=seed,
                                    noise_scale=noise_scale)
    assert got == want
    # Both took the same draws and spawned the same streams from rng.
    assert rng.integers(2**62) == ref_rng.integers(2**62)
    assert rng.spawn(1)[0].integers(2**62) == ref_rng.spawn(1)[0].integers(2**62)


@pytest.mark.parametrize("seed", range(10))
def test_ber_experiment_matches_reference_at_benchmark_points(seed):
    # The attack-n16 and attack-n4-ml workloads: the channels factored in
    # stacked calls give the trial-by-trial counts exactly.
    _assert_matches_reference(_attack_point(16, 8), 2, ["zf", "babai"], seed)
    _assert_matches_reference(_attack_point(4, 4), 40, ["zf", "babai", "ml"],
                              seed)


@pytest.mark.parametrize("methods", [["zf"], ["babai"], ["ml"],
                                     ["zf", "babai", "ml"]])
def test_ber_experiment_matches_reference_across_chunks(methods):
    # One trial past a chunk, with and without noise.
    p = _params(n=4, m_rx=6, M=4, alpha=0.5)
    for noise_scale in (1.0, 0.0):
        _assert_matches_reference(p, attacks.BER_CHUNK + 1, methods, 11,
                                  noise_scale)
