"""Reference code the benchmark checks the program against.

Everything here is independent of the csikey package, so an optimisation
inside csikey cannot change what these checks accept.
"""

import itertools
import math

import numpy as np

# Relative slack for comparing two float64 evaluations of the same distance
# or Gram-Schmidt quantity computed in a different order.
ROUNDING_RTOL = 1e-9
LLL_RTOL = 1e-6


def binomial_ci(errors: int, total: int) -> tuple[float, float]:
    """95% Wald interval, the one the acceptance criteria quote."""
    p_hat = errors / total
    half = 1.96 * math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / total)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def brute_force_ml(g: np.ndarray, y: np.ndarray, M: int) -> tuple[np.ndarray, float]:
    """argmin over x in [0, M)^n of ||y - g x||, lexicographically first.

    Returns (x, squared distance of x).
    """
    n = g.shape[1]
    grid = np.array(list(itertools.product(range(M), repeat=n)), dtype=float)
    d2 = np.sum((y[None, :] - grid @ g.T) ** 2, axis=1)
    best = int(np.argmin(d2))  # first minimum = lexicographically smallest
    return grid[best].astype(np.int64), float(d2[best])


def audit_ml(g, y, M: int, estimate) -> str | None:
    """None if estimate is the exact ML decision, else why it is not.

    A different vector is accepted only when its distance equals the
    optimum within float64 rounding, where no evaluation order is exact.
    """
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    est = np.asarray(estimate)
    if est.shape != (g.shape[1],) or np.any(est < 0) or np.any(est >= M):
        return f"estimate {est.tolist()} outside [0, {M})^{g.shape[1]}"
    ref, best_d2 = brute_force_ml(g, y, M)
    if np.array_equal(est, ref):
        return None
    d2 = float(np.sum((y - g @ est.astype(float)) ** 2))
    if d2 <= best_d2 * (1 + ROUNDING_RTOL):
        return None
    return (f"estimate {est.tolist()} at distance^2 {d2:.6g}, brute force "
            f"{ref.tolist()} at {best_d2:.6g}")


def int_det(rows) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def gso(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, squared Gram-Schmidt norms) of the columns, from a QR factor."""
    r = np.linalg.qr(np.asarray(basis, dtype=float), mode="r")
    diag = np.diag(r)
    mu = (r / diag[:, None]).T  # mu[i, j] = <b_i, b*_j> / ||b*_j||^2
    return mu, diag**2


def audit_lll(original, reduced, transform, delta: float) -> str | None:
    """None if reduced = original @ transform is an LLL-reduced basis of the
    same lattice (|det transform| = 1), else why it is not."""
    original = np.asarray(original, dtype=float)
    reduced = np.asarray(reduced, dtype=float)
    t = np.asarray(transform)
    n = original.shape[1]
    if t.shape != (n, n):
        return f"transform shape {t.shape}, expected {(n, n)}"
    if any(int(x) != x for x in t.ravel().tolist()):
        return "transform has non-integer entries"
    det = int_det(t.tolist())
    if abs(det) != 1:
        return f"|det transform| = {abs(det)}, not 1"
    scale = float(np.max(np.abs(original)))
    image = original @ t.astype(float)
    if not np.allclose(image, reduced, rtol=1e-7, atol=1e-9 * scale):
        return "reduced basis differs from original @ transform"
    mu, norms2 = gso(reduced)
    for i in range(n):
        for j in range(i):
            if abs(mu[i, j]) > 0.5 + LLL_RTOL:
                return f"not size-reduced: |mu[{i},{j}]| = {abs(mu[i, j]):.6g}"
    for k in range(1, n):
        if norms2[k] < (delta - mu[k, k - 1] ** 2) * norms2[k - 1] * (1 - LLL_RTOL):
            return f"Lovasz condition fails at k={k}"
    return None
