import math
import time

import numpy as np
import pytest

from csikey.attacks import toy_bdd_setup
from csikey.distributions import (discrete_gaussian_sample, psi_sample, psi_std,
                                  sample_discrete_gaussian_int,
                                  smoothing_upper_bound, tvd_gaussians)
from csikey.lattice import LatticeBasis, lll_reduce, successive_minima
from csikey.numerics import make_rng, pseudo_inverse
from lattice_reference import klein_reference


def test_psi_std_convention():
    assert psi_std(math.sqrt(2 * math.pi)) == pytest.approx(1.0)


def test_psi_sample_moments():
    rng = make_rng(0)
    s = psi_sample(1.0, rng, size=10**6)
    assert np.var(s) == pytest.approx(1.0 / (2 * math.pi), rel=0.005)
    assert np.mean(s) == pytest.approx(0.0, abs=2e-3)


def test_psi_scale_family():
    from scipy import stats
    rng = make_rng(1)
    s = psi_sample(2.0, rng, size=10**4)
    stat = stats.kstest(s, "norm", args=(0.0, psi_std(2.0))).pvalue
    assert stat > 0.01


def test_tvd_identical_zero():
    assert tvd_gaussians(1.3, 1.3) == 0.0


def tvd_gaussians_quad(w1: float, w2: float) -> float:
    """Quadrature evaluation of the same distance (independent cross-check)."""
    from scipy import integrate, stats
    s1, s2 = psi_std(w1), psi_std(w2)

    def absdiff(x):
        return abs(stats.norm.pdf(x, scale=s1) - stats.norm.pdf(x, scale=s2))

    hi = 12.0 * max(s1, s2)
    val, _ = integrate.quad(absdiff, -hi, hi, epsabs=1e-12, limit=200)
    return 0.5 * val


def test_tvd_matches_quadrature():
    rng = make_rng(2)
    for _ in range(20):
        w1 = rng.uniform(0.2, 3.0)
        w2 = rng.uniform(0.2, 3.0)
        assert tvd_gaussians(w1, w2) == pytest.approx(
            tvd_gaussians_quad(w1, w2), abs=1e-8)


def test_tvd_small_change_bound():
    # TVD between nearby widths is controlled linearly by the width ratio.
    rng = make_rng(3)
    for _ in range(200):
        beta = rng.uniform(0.2, 3.0)
        ratio = rng.uniform(1.0, 2.0)
        alpha = beta * ratio
        assert tvd_gaussians(alpha, beta) <= 9.0 * (ratio - 1.0) + 1e-12


def test_integer_sampler_pmf():
    rng = make_rng(4)
    n = 10**5
    s = sample_discrete_gaussian_int(3.0, np.zeros(n), rng)
    support = np.arange(-50, 51)
    pmf = np.exp(-math.pi * support**2 / 9.0)
    pmf /= pmf.sum()
    p0_hat = np.mean(s == 0)
    assert p0_hat == pytest.approx(pmf[50], rel=0.01)


def test_integer_sampler_narrow_width_returns():
    # Rejection from the geometric proposal never returned at width 0.01.
    start = time.perf_counter()
    s = sample_discrete_gaussian_int(0.01, np.full(2000, 0.3), make_rng(6))
    assert time.perf_counter() - start < 1.0
    assert np.all(s == 0)


@pytest.mark.parametrize("width,center", [
    (0.05, 3.499), (0.05, -2.5004), (0.3, 0.45), (0.3, -7.61),
    (0.9, 0.2), (0.9, -1.3)])
def test_integer_sampler_narrow_width_pmf(width, center):
    from scipy import stats
    draws = 20000
    s = sample_discrete_gaussian_int(width, np.full(draws, center),
                                     make_rng(int(1000 * width)))
    support = np.arange(math.floor(center) - 10, math.ceil(center) + 11)
    pmf = np.exp(-math.pi * (support - center) ** 2 / width**2)
    pmf /= pmf.sum()
    assert np.all((s >= support[0]) & (s <= support[-1]))
    counts = np.bincount(s - support[0], minlength=support.size)
    # Cells expecting fewer than 5 draws are pooled into one.
    small = pmf * draws < 5
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(pmf[~small], pmf[small].sum()) * draws
    keep = expected > 0
    assert stats.chisquare(observed[keep], expected[keep]).pvalue > 1e-3


def test_integer_sampler_keeps_draws_from_width_1():
    # The geometric-rejection path and its draws, at the CLI's width 2.5.
    rng = make_rng(40)
    s = sample_discrete_gaussian_int(2.5, np.linspace(-3.3, 4.7, 24), rng)
    assert s.tolist() == [-4, -6, -3, -2, -4, -2, -2, -1, -1, 1, 1, -1, 1, 1,
                          0, 2, 1, 2, 3, 3, 4, 3, 3, 4]


def test_integer_sampler_keeps_draws_below_width_1():
    # The inversion path and its draws, at one narrow width.
    rng = make_rng(41)
    s = sample_discrete_gaussian_int(0.4, np.linspace(-2.7, 3.4, 16), rng)
    assert s.tolist() == [-3, -2, -2, -1, -1, -1, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3]
    s = sample_discrete_gaussian_int(0.4, np.array([0.5, -1.5, 2.49, -0.51]),
                                     rng)
    assert s.tolist() == [0, -2, 3, -1]


def test_discrete_gaussian_z1_support_and_pmf():
    rng = make_rng(5)
    pts, coeffs = discrete_gaussian_sample(LatticeBasis(np.array([[2.0]])), 3.0,
                                           rng, size=20000)
    assert np.all(pts % 2 == 0)
    assert np.allclose(pts[:, 0], 2.0 * coeffs[:, 0])


def test_discrete_gaussian_exact_lattice_points():
    rng = make_rng(7)
    basis = np.array([[2.0, 1.0], [0.0, 3.0]])
    pts, coeffs = discrete_gaussian_sample(LatticeBasis(basis), 20.0, rng,
                                           size=1000)
    assert np.max(np.abs(pts - coeffs @ basis.T)) <= 1e-9


class _StubRng:
    """Uniform draws 0.5, then 1e-300; every sign +1."""

    def __init__(self):
        self.uniforms = iter([0.5, 1e-300])

    def random(self, size):
        return np.full(size, next(self.uniforms))

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)


def test_geometric_offset_is_exact_at_a_wide_width():
    # The proposal's offset at U = 0.5 is floor(sigma ln 2); a ratio
    # exp(-1/sigma) would lose its low bits at this width (304,047,665,732).
    sigma = 2.0**40 / math.sqrt(2 * math.pi)
    draw = sample_discrete_gaussian_int(2.0**40, 0.0, _StubRng())
    assert draw.tolist() == [math.floor(sigma * math.log(2))] == [304_043_241_073]


def _klein_cases():
    yield np.array([[2.0]]), 3.0
    yield np.eye(2), 5.0
    yield np.eye(2), 1.0  # at the old width guard, which is gone
    yield np.array([[2.0, 1.0], [0.0, 3.0]]), 20.0
    rng = make_rng(8)
    for n in (1, 2, 3, 4, 4):
        _, basis, *_, r = toy_bdd_setup(n, rng)
        yield pseudo_inverse(basis.matrix).T, r


def test_klein_sampler_matches_reference_loop():
    # Same seed, same draws in the same order: identical points and coeffs.
    for seed, (basis, r) in enumerate(_klein_cases()):
        pts, coeffs = discrete_gaussian_sample(
            LatticeBasis(basis), r, make_rng(seed), size=2000)
        ref_pts, ref_coeffs = klein_reference(basis, r, make_rng(seed), 2000)
        assert np.array_equal(coeffs, ref_coeffs)
        assert np.array_equal(pts, ref_pts)


def test_smoothing_upper_bound_z1():
    val = smoothing_upper_bound(LatticeBasis(np.array([[1.0]])), 1.0)
    assert val == pytest.approx(math.sqrt(math.log(4.0) / math.pi), abs=1e-9)


def test_smoothing_upper_bound_scaling():
    rng = make_rng(10)
    b = rng.normal(size=(3, 3))
    base = smoothing_upper_bound(LatticeBasis(b), 0.1)
    assert smoothing_upper_bound(LatticeBasis(2.5 * b), 0.1) == pytest.approx(
        2.5 * base, rel=1e-12)


def test_smoothing_upper_bound_takes_exact_lambda_n_at_n7():
    # The longest LLL-reduced column (2.95) exceeds lambda_7 (2.58) here; the
    # bound is the exact one.
    b = np.random.default_rng(6).normal(size=(7, 7))
    lam7 = successive_minima(LatticeBasis(b))[-1]
    reduced = lll_reduce(LatticeBasis(b)).reduced.matrix
    assert np.max(np.linalg.norm(reduced, axis=0)) > 1.1 * lam7
    factor = math.sqrt(math.log(2 * 7 * (1 + 1 / 0.1)) / math.pi)
    assert smoothing_upper_bound(LatticeBasis(b), 0.1) == pytest.approx(
        factor * lam7, rel=1e-12)


def test_smoothing_upper_bound_monotone_in_eps():
    b = LatticeBasis(np.eye(2))
    vals = [smoothing_upper_bound(b, e) for e in (0.01, 0.1, 0.5, 1.0, 10.0)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
