"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

The report lines are written to the real stdout so they survive pytest's
capture and appear in logged runs.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from csikey.attacks import (bdd_via_mimo, ber_experiment, decision_to_search,
                            error_handling_search, make_decision_oracle,
                            make_exact_ml_oracle, toy_bdd_setup,
                            verify_solution)
from csikey.cli import main
from csikey.distributions import discrete_gaussian_sample, tvd_gaussians
from csikey.lattice import (LatticeBasis, enumerate_cvp, int_rank_det,
                            lll_reduce, successive_minima)
from csikey.numerics import make_rng
from csikey.params import design_table
from csikey.protocols import decrypt, encrypt, run_key_agreement
from csikey.wiretap import (SystemParams, bob_decode, channel_noise,
                            make_instance, random_message, sample_A_dist,
                            transmit_to_bob)
from lattice_reference import is_lll_reduced

TABLE_LOG2M = [33.7, 51.3, 75.4, 96.0]
TABLE_SNR = [87.1, 139.2, 210.7, 272.2]
TABLE_CAPACITY = [12.4, 19.4, 29.1, 37.6]


def _report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}: acceptance {num} — {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line.strip()


def test_acceptance_01_table1():
    start = time.monotonic()
    rows = design_table([80, 128, 196, 256])
    dl = max(abs(r["log2M"] - want) for r, want in zip(rows, TABLE_LOG2M))
    ds = max(abs(r["snr_db"] - want) for r, want in zip(rows, TABLE_SNR))
    elapsed = time.monotonic() - start
    ok = dl <= 0.1 and ds <= 0.15 and elapsed < 1.0
    _report(1, ok, f"design table: max |dlog2M|={dl:.3f} (<=0.1), "
                   f"max |dSNR|={ds:.3f} dB (<=0.15), {elapsed:.2f}s")


def test_acceptance_02_table2():
    start = time.monotonic()
    rows = design_table([80, 128, 196, 256])
    dc = max(abs(r["capacity"] - want)
             for r, want in zip(rows, TABLE_CAPACITY))
    elapsed = time.monotonic() - start
    ok = dc <= 0.1 and elapsed < 1.0
    _report(2, ok, f"secrecy capacity: max |dcapacity|={dc:.3f} bits (<=0.1), "
                   f"{elapsed:.2f}s")


def test_acceptance_03_noiseless_correctness():
    start = time.monotonic()
    rng = make_rng(3000)
    bob_exact = cipher_exact = 0
    trials = 0
    for n in (4, 8, 16, 32, 64):
        p = SystemParams(n=n, m_rx=n, M=16, alpha=0.1, k=1.0, noise_scale=0.0)
        for _ in range(200):
            ch = make_instance(p, rng, 1)
            x = random_message(p, rng)
            y = transmit_to_bob(ch, x, channel_noise(p, rng, p.m_rx))
            bob_exact += np.array_equal(bob_decode(ch, y, p), [x])
            s = rng.integers(0, p.M, size=n)
            m = rng.integers(0, 2, size=n)
            y = encrypt(p, s, m, ch, rng)
            cipher_exact += np.array_equal(decrypt(p, s, y, ch), [m])
            trials += 1
    elapsed = time.monotonic() - start
    ok = bob_exact == trials == cipher_exact and elapsed < 30.0
    _report(3, ok, f"noiseless: Bob exact {bob_exact}/{trials}, cipher exact "
                   f"{cipher_exact}/{trials}, {elapsed:.1f}s (<30s)")


def test_acceptance_04_unitary_invariance():
    rng = make_rng(4000)
    p = SystemParams(n=8, m_rx=8, M=16, alpha=0.5, k=1.0)
    worst = 0.0
    for _ in range(1000):
        ch = make_instance(p, rng, 1)
        x = random_message(p, rng)
        clean = transmit_to_bob(ch, x, np.zeros(p.m_rx))[0]
        y = transmit_to_bob(ch, x, channel_noise(p, rng, p.m_rx))[0]
        e = y - clean
        shaped_noise = ch.U[0].T @ y - ch.sigma[0] * x
        worst = max(worst, abs(np.linalg.norm(shaped_noise)
                               - np.linalg.norm(e)) / np.linalg.norm(e))
    ok = worst <= 1e-9
    _report(4, ok, f"unitary invariance: max relative norm gap {worst:.2e} "
                   f"(<=1e-9) over 1000 instances")


def test_acceptance_05_orthogonal_invariance():
    rng = make_rng(5000)
    p = SystemParams(n=16, m_rx=16, M=16, alpha=0.5, k=1.0)
    # Eve's G = B V of 40 channels: B is independent of A, hence of V.
    entries = make_instance(p, rng, 40, eve=True).G.ravel()[:10**4]
    std = p.k / math.sqrt(2 * math.pi)
    se_mean = std / math.sqrt(entries.size)
    se_var = std**2 * math.sqrt(2.0 / entries.size)
    mean_ok = abs(np.mean(entries)) <= 3 * se_mean
    var_ok = abs(np.var(entries) - std**2) <= 3 * se_var
    pval = stats.kstest(entries, "norm", args=(0.0, std)).pvalue
    ok = mean_ok and var_ok and pval > 0.01
    _report(5, ok, f"orthogonal invariance: mean_ok={mean_ok}, "
                   f"var_ok={var_ok}, KS p={pval:.3f} (>0.01) at N=1e4")


def test_acceptance_06_lll_validity():
    rng = make_rng(600)
    violations = transform_fail = cond_fail = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        while True:
            m = rng.integers(-5, 6, size=(n, n))
            if abs(int_rank_det(m)[1]) >= 1:
                break
        b = LatticeBasis(m.astype(float))
        red = lll_reduce(b)
        if int_rank_det(red.transform)[1] not in (1, -1) or not np.array_equal(
                b.matrix @ red.transform.astype(float), red.reduced.matrix):
            transform_fail += 1
        if not is_lll_reduced(red.reduced):
            cond_fail += 1
        lam_n = successive_minima(b)[-1]
        factor = 2.0 ** (n * math.log2(math.log2(n)) / math.log2(n))
        if np.max(np.linalg.norm(red.reduced.matrix, axis=0)) \
                >= factor * lam_n:
            violations += 1
    ok = violations == transform_fail == cond_fail == 0
    _report(6, ok, f"LLL on 200 bases (n in 4..8): transform failures "
                   f"{transform_fail}, condition failures {cond_fail}, "
                   f"norm-bound violations {violations} (all must be 0)")


def test_acceptance_07_discrete_gaussian_tvd():
    rng = make_rng(700)
    n_samples = 10**5
    pts, _ = discrete_gaussian_sample(
        LatticeBasis(np.array([[1.0]])), 3.0, rng, size=n_samples)
    support = np.arange(-40, 41)
    pmf = np.exp(-math.pi * support**2 / 9.0)
    pmf /= pmf.sum()
    counts = np.bincount(np.clip(pts[:, 0].astype(int), -40, 40) + 40,
                         minlength=81) / n_samples
    tvd1 = 0.5 * np.abs(counts - pmf).sum()
    pts2, _ = discrete_gaussian_sample(
        LatticeBasis(np.eye(2)), 3.0, rng, size=n_samples)
    g = np.arange(-12, 13)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    pmf2 = np.exp(-math.pi * (gx**2 + gy**2) / 9.0)
    pmf2 /= pmf2.sum()
    ij = np.clip(pts2.astype(int), -12, 12) + 12
    counts2 = np.bincount(ij[:, 0] * 25 + ij[:, 1],
                          minlength=625) / n_samples
    tvd2 = 0.5 * np.abs(counts2 - pmf2.ravel()).sum()
    ok = tvd1 < 0.02 and tvd2 < 0.02
    _report(7, ok, f"sampler TVD at N=1e5: Z^1 {tvd1:.4f}, Z^2 {tvd2:.4f} "
                   f"(both <0.02)")


def test_acceptance_08_tvd_ratio_bound():
    rng = make_rng(800)
    violations = 0
    for _ in range(200):
        beta = rng.uniform(0.2, 3.0)
        ratio = rng.uniform(1.0 + 1e-9, 2.0)
        if tvd_gaussians(beta * ratio, beta) > 9.0 * (ratio - 1.0):
            violations += 1
    ok = violations == 0
    _report(8, ok, f"TVD width-ratio bound: {violations} violations in 200 "
                   f"pairs (must be 0)")


def test_acceptance_09_residual_verifier():
    rng = make_rng(900)
    p = SystemParams(n=16, m_rx=16, M=4, alpha=0.05, k=1.0)
    trials = 500
    accept_true = reject_false = 0
    for _ in range(trials):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        accept_true += verify_solution(batch, x, p, noise_width=p.alpha)
        wrong = x.copy()
        j = int(rng.integers(p.n))
        wrong[j] = (wrong[j] + 1 + int(rng.integers(p.M - 1))) % p.M
        reject_false += not verify_solution(batch, wrong, p,
                                            noise_width=p.alpha)
    fa, fr = accept_true / trials, reject_false / trials
    ok = fa >= 0.99 and fr >= 0.99
    _report(9, ok, f"verifier at n=16, 64n samples: accept-true {fa:.3f}, "
                   f"reject-false {fr:.3f} (both >=0.99)")


def test_acceptance_10_noise_padding_search():
    rng = make_rng(1000)
    p = SystemParams(n=4, m_rx=4, M=4, alpha=0.05, k=1.0)
    oracle = make_exact_ml_oracle(p)
    trials = 200
    hits = 0
    for _ in range(trials):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n,
                              noise_width=p.alpha / 2)
        try:
            hits += np.array_equal(error_handling_search(batch, oracle, p,
                                                         rng), x)
        except Exception:
            pass
    ok = hits >= 0.99 * trials
    _report(10, ok, f"unknown-noise search (beta=alpha/2): {hits}/{trials} "
                    f"recovered (>=99%)")


def test_acceptance_11_decision_to_search():
    rng = make_rng(1100)
    p = SystemParams(n=4, m_rx=4, M=4, alpha=0.05, k=1.0)
    oracle = make_decision_oracle(p)
    trials = 200
    hits = 0
    for _ in range(trials):
        x = rng.integers(0, p.M, size=p.n)
        batch = sample_A_dist(x, p, rng, count=64 * p.n, noise_width=p.alpha)
        hits += np.array_equal(
            decision_to_search(batch, oracle, p, rng), x)
    ok = hits == trials
    _report(11, ok, f"decision-to-search: {hits}/{trials} recovered (must be "
                    f"100%)")


def test_acceptance_12_bdd_via_mimo():
    start = time.monotonic()
    rng = make_rng(1200)
    trials = 100
    matches = 0
    for _ in range(trials):
        p, basis, target, bound_d, _, r = toy_bdd_setup(4, rng)
        point, _ = bdd_via_mimo(basis, target, bound_d, r,
                                make_exact_ml_oracle(p), p, rng)
        ref, _ = enumerate_cvp(basis, target)
        matches += bool(np.allclose(point, ref, atol=1e-6))
    elapsed = time.monotonic() - start
    ok = matches == trials and elapsed < 300.0
    _report(12, ok, f"BDD via search oracle: {matches}/{trials} equal to "
                    f"enumeration (must be 100%), {elapsed:.1f}s (<300s)")


def test_acceptance_13_attack_separation():
    k = 0.002
    p = SystemParams(n=16, m_rx=16, M=256, alpha=1.05 * math.sqrt(16) * k**2,
                     k=k)
    res = {r["method"]: r
           for r in ber_experiment(p, 2000, make_rng(1300))}
    bob, zf, babai = res["bob"], res["zf"], res["babai"]
    ok = (bob["ser"] < zf["ser"] and bob["ser"] < babai["ser"]
          and bob["ser_ci_high"] < zf["ser_ci_low"]
          and bob["ser_ci_high"] < babai["ser_ci_low"])
    _report(13, ok,
            f"attack separation at minimum-noise parameters: Bob SER "
            f"{bob['ser']:.4f} [{bob['ser_ci_low']:.4f},{bob['ser_ci_high']:.4f}] "
            f"vs ZF {zf['ser']:.4f} [{zf['ser_ci_low']:.4f},-] and Babai "
            f"{babai['ser']:.4f} [{babai['ser_ci_low']:.4f},-], CIs disjoint")


def test_acceptance_14_protocol_correctness():
    p = SystemParams(n=16, m_rx=32, M=16, alpha=0.02, k=1.0)
    eta = 32
    implication_ok = True
    clean_runs = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(14,)))
        tr = run_key_agreement(p, eta, "none", rng)
        if tr["message_errors"] == 0:
            clean_runs += 1
            implication_ok &= tr["success"]
    rng = make_rng(1400)
    noiseless = replace(p, noise_scale=0.0)
    s = rng.integers(0, p.M, size=p.n)
    bits = errs = 0
    while bits < 10**4:
        ch = make_instance(p, rng, 1)
        m = rng.integers(0, 2, size=p.n)
        y = encrypt(noiseless, s, m, ch, rng)
        wrong = rng.integers(0, p.M, size=p.n)
        errs += int(np.sum(decrypt(p, wrong, y, ch) != m))
        bits += p.n
    ber = errs / bits
    ok = implication_ok and clean_runs > 0 and abs(ber - 0.5) <= 0.05
    _report(14, ok, f"protocols: keys equal in all {clean_runs} error-free "
                    f"runs; wrong-key BER {ber:.3f} over {bits} bits "
                    f"(0.5 +/- 0.05)")


def test_acceptance_15_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(["ber", "--n", "8", "--trials", "10", "--seed", "7",
                   "--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    _report(15, ok, "identical config/seed re-run produces byte-identical CSV")
