"""Parameter constraint gate and the closed-form design tables.

All logarithms in the constellation-size constraint are base 2; that is
the only base reproducing the published example parameter sets.
"""

import math

from .errors import ParameterError
from .wiretap import SystemParams


def required_log2M(n: int, m_slack: float = 1.0) -> float:
    """Minimum log2 M: log2(m) + n * log2(log2 n) / log2(n)."""
    if n < 4:
        raise ParameterError(
            f"constellation constraint undefined for n < 4 (got {n}): "
            "log2 log2 n is non-positive"
        )
    if n > 2**53:  # so that n * log2(log2 n) is a finite float
        raise ParameterError("n must be at most 2^53")
    return math.log2(m_slack) + n * math.log2(math.log2(n)) / math.log2(n)


def min_alpha(n: int, k: float = 1.0, m_slack: float = 1.0) -> float:
    """Minimum noise parameter sqrt(n) * k^2 / m."""
    return math.sqrt(n) * k**2 / m_slack


def max_snr_db(n: int, m_slack: float = 1.0) -> float:
    """Maximum eavesdropper SNR 10*log10(M_min / (3 * alpha_min)) at k = 1."""
    log2m = required_log2M(n, m_slack)
    m_min = 2.0**log2m if log2m < 1024 else math.inf
    a_min = min_alpha(n, k=1.0, m_slack=m_slack)
    ratio = m_min / (3.0 * a_min)
    if not all(2.0**-1022 <= v < math.inf for v in (m_min, a_min, ratio)):
        raise ParameterError(f"minimum M = 2^{log2m:.6g}, minimum alpha or their ratio "
                             f"is not a normal float (n = {n}, m_slack = {m_slack:g})")
    return 10.0 * math.log10(ratio)


def secrecy_capacity(n: int, log2M: float) -> float:
    """Computational secrecy capacity 2*sqrt(n * log2M * log2(1.01)) bits."""
    if n < 1 or not 0 < log2M < math.inf:
        raise ParameterError("need n >= 1 and a finite log2M > 0")
    return 2.0 * math.sqrt(n * log2M * math.log2(1.01))


def check_secrecy_constraints(p: SystemParams) -> tuple[bool, bool]:
    """(noise_ok, constellation_ok): m alpha / k^2 > sqrt(n), log2 M > its minimum.
    Below n = 4 the minimum is undefined, so constellation_ok is False."""
    noise_ok = p.m_slack * p.alpha / p.k**2 > math.sqrt(p.n)
    if p.n < 4:
        return noise_ok, False
    max_snr_db(p.n, p.m_slack)  # rejects an m_slack off the normal floats
    return noise_ok, math.log2(p.M) > required_log2M(p.n, p.m_slack)


def design_table(ns, m_slack: float = 1.0):
    """Rows (n, log2M, snr_db, capacity) at the minimum constellation size."""
    if not 0 < m_slack < math.inf:
        raise ParameterError("m_slack must be positive and finite")
    rows = []
    for n in ns:
        log2m = required_log2M(n, m_slack)
        rows.append({
            "n": n,
            "log2M": log2m,
            "snr_db": max_snr_db(n, m_slack),
            "capacity": secrecy_capacity(n, log2m),
        })
    return rows
