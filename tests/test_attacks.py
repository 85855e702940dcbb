import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from csikey import attacks, cli, lattice
from csikey.attacks import (BddInstance, bdd_sample_count,
                            bdd_via_mimo, ber_experiment, babai_attack,
                            decision_to_search, error_handling_search,
                            exact_ml_decode, make_decision_oracle,
                            make_exact_ml_oracle, toy_bdd_setup,
                            verify_solution, zf_decode)
from csikey.errors import (DegenerateBasisError, DimensionGuardError,
                           NumericalError, ParameterError, SearchFailureError)
from csikey.lattice import (LatticeBasis, enumerate_cvp, lattice_bases,
                            lll_reduce)
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


def test_zf_estimate_that_overflows_raises():
    with pytest.raises(NumericalError):
        zf_decode(np.eye(2) * 1e300, np.array([1e300, 0.0]), 4)


def test_babai_recovers_at_high_snr():
    # 20 channels decoded in one call, one estimate row per channel.
    p = _params()
    rng = make_rng(1)
    xs, reds, ys = [], [], []
    for _ in range(20):
        x, g, y = _clean_channel(p, rng, count=4)
        xs.append(x)
        reds.append(lll_reduce(LatticeBasis(g)))
        ys.append(y)
    assert np.array_equal(babai_attack(reds, np.array(ys), p.M).estimate,
                          np.array(xs))


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
    # Each call gets the chunk's Gram-Schmidt record of its own g.
    calls = []

    def checked(g, y, M, basis=None):
        assert basis is not None and np.array_equal(basis.matrix, g)
        out = exact_ml_decode(g, y, M, basis=basis)
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


def test_exact_ml_with_the_chunk_record_matches_without():
    rng = make_rng(21)
    g = rng.normal(size=(30, 6, 4))
    y = g @ rng.integers(0, 8, size=(30, 4, 1)) + rng.normal(size=(30, 6, 1))
    for gt, yt, basis in zip(g, y[..., 0], lattice_bases(g), strict=True):
        assert np.array_equal(exact_ml_decode(gt, yt, 8, basis=basis).estimate,
                              exact_ml_decode(gt, yt, 8).estimate)


def test_exact_ml_tie_lexicographic():
    # (0.5, 0.5) is equidistant from the four corners of [0, 1]^2.
    got = exact_ml_decode(np.eye(2), np.array([0.5, 0.5]), 4).estimate
    assert np.array_equal(got, [0, 0])


def test_exact_ml_rank_deficient_channel_raises():
    with pytest.raises(DegenerateBasisError):
        exact_ml_decode(np.ones((4, 2)), np.ones(4), 4)


def test_exact_ml_non_finite_centre_or_distance_raises():
    # Noise that dwarfs the channel: the box clamps the search far from a
    # centre near 1e200, whose squared distance overflows; at 1e300 the
    # centre itself does.  Both raise, with no numpy warning.
    with pytest.raises(NumericalError, match="distance"):
        exact_ml_decode(np.eye(2), np.array([1e200, 0.0]), 4)
    with pytest.raises(NumericalError, match="centre"):
        exact_ml_decode(np.eye(2) * 1e-10, np.array([1e300, 0.0]), 4)


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


@pytest.mark.parametrize("alpha,width", [(1.2e154, 6e153), (2e154, 1e154),
                                         (2e154, 1e300)])
def test_verify_solution_near_the_top_of_the_float_range(alpha, width):
    # The squared residuals overflow here; their RMS must not.
    p = SystemParams(n=2, m_rx=2, M=4, alpha=alpha, k=1e152)
    x = np.array([1, 3])
    batch = sample_A_dist(x, p, make_rng(0), count=128, noise_width=width)
    wrong = x + 8 * width / p.k  # residual width about 8 times the noise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_solution(batch, x, p, noise_width=width)
        assert not verify_solution(batch, wrong, p, noise_width=width)


def test_error_handling_search_with_unknown_beta():
    p = _params()
    rng = make_rng(4)
    oracle = make_exact_ml_oracle(p)
    for _ in range(20):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n,
                              noise_width=p.alpha / 2)
        assert np.array_equal(error_handling_search(batch, oracle, p, rng), x)


def _wrong_until(calls, x, M, right_from):
    """Stub search oracle: records each batch, answers x from call
    right_from on (never if None) and a wrong vector before."""

    def oracle(batch):
        calls.append(batch)
        right = right_from is not None and len(calls) >= right_from
        return x if right else (x + 1) % M

    return oracle


def test_error_handling_search_pads_when_unpadded_answer_fails():
    p = _params()
    rng = make_rng(20)
    x = rng.integers(0, p.M, size=p.n)
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha / 2)
    calls = []
    got = error_handling_search(batch, _wrong_until(calls, x, p.M, 2), p, rng)
    assert np.array_equal(got, x)
    assert len(calls) == 2 and calls[0] is batch
    # The padded batch adds noise to y and keeps the channel rows a.
    assert np.array_equal(calls[1].a, batch.a)
    assert not np.array_equal(calls[1].y, batch.y)


def test_error_handling_search_fails_after_every_padded_width():
    p = _params(n=2, m_rx=2)
    rng = make_rng(21)
    x = rng.integers(0, p.M, size=p.n)
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha / 2)
    calls = []
    with pytest.raises(SearchFailureError):
        error_handling_search(batch, _wrong_until(calls, x, p.M, None), p, rng)
    # One unpadded try, then n paddings at each of the n^2 padded widths.
    assert len(calls) == 1 + 2**2 * 2


PADDING_POINTS = {f"n{n}-j{j}": (n, 2.0**j, 0.05 * 2.0**j)
                  for n in (2, 3, 5, 10) for j in (-511, 0, 511)}
PADDING_POINTS["n10-alpha0.334"] = (10, 1.0, 0.334)


@pytest.mark.parametrize("n,k,alpha", PADDING_POINTS.values(), ids=PADDING_POINTS)
def test_padding_grid_does_not_depend_on_scale(n, k, alpha):
    # At any scale of k and alpha the grid keeps its n^2 + 1 widths: one
    # unpadded try, then n paddings at each of the n^2 padded widths.
    p = _params(n=n, m_rx=n, k=k, alpha=alpha)
    rng = make_rng(21)
    x = rng.integers(0, p.M, size=p.n)
    batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha / 2)
    calls = []
    with pytest.raises(SearchFailureError):
        error_handling_search(batch, _wrong_until(calls, x, p.M, None), p, rng)
    assert len(calls) == 1 + n**3


def test_decision_to_search_recovers():
    p = _params()
    rng = make_rng(5)
    oracle = make_decision_oracle(p)
    for _ in range(20):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        assert np.array_equal(
            decision_to_search(batch, oracle, p, rng), x)


def test_decision_to_search_rejects_structure_free():
    p = _params()
    rng = make_rng(6)
    oracle = make_decision_oracle(p)
    batch = sample_R_dist(p, rng, count=64 * p.n)
    with pytest.raises(SearchFailureError, match="no guess accepted for coordinate 0"):
        decision_to_search(batch, oracle, p, rng)


def test_bdd_precondition_errors():
    rng = make_rng(7)
    p, inst, _, r = toy_bdd_setup(3, rng)
    oracle = make_exact_ml_oracle(p)
    with pytest.raises(ParameterError, match="violates r > sqrt"):
        bdd_via_mimo(inst, 0.5, oracle, p, rng)  # r below smoothing bound
    wide = BddInstance(inst.basis, inst.target, bound_d=10.0)
    with pytest.raises(ParameterError, match="bound_d=10 violates d <"):
        bdd_via_mimo(wide, r, oracle, p, rng)  # bound above the distance cap


def test_bdd_hiding_error_and_progress_warning():
    # The toy lattice shrunk tenfold, with r = 0.5, passes the smoothing and
    # distance checks; its distance cap falls below sqrt(n / 2) (a warning)
    # and the scaled dual's smoothing width exceeds k / sqrt(2).
    rng = make_rng(7)
    p, inst, _, _ = toy_bdd_setup(3, rng)
    small = BddInstance(LatticeBasis(inst.basis.matrix * 0.1),
                        inst.target * 0.1, inst.bound_d * 0.1)
    with pytest.warns(UserWarning, match="iteration-progress"), \
            pytest.raises(ParameterError, match="statistical-hiding"):
        bdd_via_mimo(small, 0.5, make_exact_ml_oracle(p), p, rng)


def test_bdd_width_too_narrow_for_the_dual():
    # The same shrunk lattice with r = 0.3 passes all four precondition
    # checks, but the dual's spacing is 10, so every Klein sample is 0.
    rng = make_rng(7)
    p, inst, _, _ = toy_bdd_setup(3, rng)
    small = BddInstance(LatticeBasis(inst.basis.matrix * 0.1),
                        inst.target * 0.1, inst.bound_d * 0.1)
    with pytest.raises(ParameterError, match="width r=0.3 is too narrow"):
        bdd_via_mimo(small, 0.3, make_exact_ml_oracle(p), p, rng)


def test_bdd_via_mimo_matches_enumeration():
    rng = make_rng(8)
    for _ in range(5):
        p, inst, planted, r = toy_bdd_setup(4, rng)
        point, coeffs = bdd_via_mimo(inst, r, make_exact_ml_oracle(p), p, rng)
        ref, _ = enumerate_cvp(inst.basis, inst.target)
        assert np.allclose(point, ref, atol=1e-6)
        assert np.allclose(point, planted, atol=1e-6)
        assert np.allclose(inst.basis.matrix @ coeffs.astype(float), point)


def test_bdd_via_mimo_pseudo_inverts_once_and_shares_the_dual_record(monkeypatch):
    # One pseudo-inverse of B gives the digits and the dual basis; the dual's
    # smoothing bound and Klein's sampler read one Gram-Schmidt record.  The
    # five records: B and its LLL reduction, the dual and its LLL reduction,
    # and the oracle's channel (this instance needs one Klein batch).
    calls = {"pseudo_inverse": 0, "gram_schmidt": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    pinv = counted("pseudo_inverse", pseudo_inverse)
    monkeypatch.setattr(attacks, "pseudo_inverse", pinv)
    monkeypatch.setattr(lattice, "pseudo_inverse", pinv, raising=False)
    monkeypatch.setattr(lattice, "gram_schmidt",
                        counted("gram_schmidt", lattice.gram_schmidt))
    rng = make_rng(5)
    p, inst, planted, r = toy_bdd_setup(4, rng)
    point, _ = bdd_via_mimo(inst, r, make_exact_ml_oracle(p), p, rng)
    assert np.allclose(point, planted, atol=1e-6)
    assert calls == {"pseudo_inverse": 1, "gram_schmidt": 5}


def test_bdd_sample_count_grows_with_noise():
    p = _params(M=12, alpha=3.0, k=2.5)
    lo = bdd_sample_count(p, r=2.5, sigma=1.0, d=0.1)
    hi = bdd_sample_count(SystemParams(n=4, m_rx=4, M=12, alpha=6.0, k=2.5),
                          r=2.5, sigma=1.0, d=0.1)
    assert hi > lo


def test_ber_experiment_counts_and_determinism():
    p = _params(n=4, m_rx=8, M=4, alpha=0.2)
    res1 = ber_experiment(p, 50, make_rng(9))
    res2 = ber_experiment(p, 50, make_rng(9))
    assert [r["ser"] for r in res1] == [r["ser"] for r in res2]
    by_method = {r["method"]: r for r in res1}
    assert set(by_method) == {"bob", "zf", "babai", "ml"}
    for r in res1:
        assert 0.0 <= r["ser_ci_low"] <= r["ser"] <= r["ser_ci_high"] <= 1.0
    # ML is the optimal decoder for Eve: never worse than ZF here
    assert by_method["ml"]["ser"] <= by_method["zf"]["ser"] + 1e-12


def test_ber_experiment_noiseless_all_exact():
    p = _params(n=4, m_rx=8, noise_scale=0.0)
    res = ber_experiment(p, 20, make_rng(10))
    assert all(r["ser"] == 0.0 for r in res)


def _attack_point(n, log2m):
    k = 0.002
    return SystemParams(n=n, m_rx=n, M=2**log2m,
                        alpha=1.05 * math.sqrt(n) * k**2, k=k)


def _assert_matches_reference(p, trials, seed):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = ber_experiment(p, trials, rng)
    want = reference_ber_experiment(p, trials, ref_rng)
    assert got == want
    assert [list(r) for r in got] == [list(r) for r in want]  # CSV column order
    # Both took the same draws and spawned the same streams from rng.
    assert rng.integers(2**62) == ref_rng.integers(2**62)
    assert rng.spawn(1)[0].integers(2**62) == ref_rng.spawn(1)[0].integers(2**62)


@pytest.mark.parametrize("seed", range(10))
def test_ber_experiment_matches_reference_at_benchmark_points(seed):
    # The attack-n16 and attack-n4-ml workloads: the channels factored in
    # stacked calls give the trial-by-trial counts exactly.
    _assert_matches_reference(_attack_point(16, 8), 2, seed)
    _assert_matches_reference(_attack_point(4, 4), 40, seed)


def test_ber_experiment_lll_calls_keep_the_per_basis_contract(monkeypatch):
    # A 40-trial chunk is reduced in one lockstep stack, and each of its 40
    # lll_reduce calls still returns that basis's own result.
    results = []

    def recording(basis):
        res = lll_reduce(basis)
        assert lll_reduce(basis) is res
        results.append((basis.matrix, res))
        return res

    monkeypatch.setattr(attacks, "lll_reduce", recording)
    ber_experiment(_attack_point(4, 4), 40, make_rng(12))
    assert len(results) == 40
    for g, res in results:
        assert res.transform.dtype == np.int64 and res.transform.shape == (4, 4)
        assert type(res.swaps) is int
        # This basis's own result: reduced = b @ transform, up to rounding.
        assert np.allclose(g @ res.transform, res.reduced.matrix, rtol=0,
                           atol=1e-9 * np.abs(g).max())


@pytest.mark.parametrize("p", [_params(n=4, m_rx=6, M=4, alpha=0.5),
                               _params(n=6, m_rx=8, M=8, alpha=0.5)],
                         ids=["with-ml", "without-ml"])
def test_ber_experiment_matches_reference_across_chunks(p):
    # One trial past a chunk, with and without noise; M^n = 4^4 takes exact
    # ML and 8^6 does not.
    for noise_scale in (1.0, 0.0):
        _assert_matches_reference(replace(p, noise_scale=noise_scale),
                                  attacks.BER_CHUNK + 1, 11)


@pytest.mark.parametrize("M,with_ml", [(10, True), (11, False)])
def test_ber_experiment_adds_exact_ml_up_to_its_space_limit(M, with_ml):
    # 10^5 = BER_ML_SPACE takes exact ML; 11^5 does not.
    rows = ber_experiment(_params(n=5, m_rx=10, M=M), 2, make_rng(13))
    methods = {"bob", "zf", "babai"} | ({"ml"} if with_ml else set())
    assert [r["method"] for r in rows] == sorted(methods)
