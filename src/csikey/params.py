"""Parameter constraint gate and the closed-form design tables.

All logarithms in the constellation-size constraint are base 2; that is
the only base reproducing the published example parameter sets.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError
from .wiretap import SystemParams


@dataclass
class ConstraintReport:
    noise_ok: bool
    noise_margin: float
    constellation_ok: bool
    log2M_required: float
    log2M_actual: float
    snr_db: float
    capacity_bits: float


def _require_n(n: int):
    if n < 4:
        raise ParameterError(
            f"constellation constraint undefined for n < 4 (got {n}): "
            "log2 log2 n is non-positive"
        )


def required_log2M(n: int, m_slack: float = 1.0) -> float:
    """Minimum log2 M: log2(m) + n * log2(log2 n) / log2(n)."""
    _require_n(n)
    return math.log2(m_slack) + n * math.log2(math.log2(n)) / math.log2(n)


def min_alpha(n: int, k: float = 1.0, m_slack: float = 1.0) -> float:
    """Minimum noise parameter sqrt(n) * k^2 / m."""
    return math.sqrt(n) * k**2 / m_slack


def max_snr_db(n: int, m_slack: float = 1.0) -> float:
    """Maximum eavesdropper SNR 10*log10(M_min / (3 * alpha_min)) at k = 1."""
    log2m = required_log2M(n, m_slack)
    if log2m >= 1024:
        raise ParameterError(f"minimum M = 2^{log2m:.6g} overflows a float")
    m_min = 2 ** log2m
    a_min = min_alpha(n, k=1.0, m_slack=m_slack)
    return 10.0 * math.log10(m_min / (3.0 * a_min))


def secrecy_capacity(n: int, log2M: float) -> float:
    """Computational secrecy capacity 2*sqrt(n * log2M * log2(1.01)) bits."""
    if n < 1 or log2M <= 0:
        raise ParameterError("need n >= 1 and log2M > 0")
    return 2.0 * math.sqrt(n * log2M * math.log2(1.01))


def check_secrecy_constraints(p: SystemParams) -> ConstraintReport:
    """Evaluate the minimum-noise and constellation-size constraints."""
    _require_n(p.n)
    noise_margin = p.m_slack * p.alpha / p.k**2 - math.sqrt(p.n)
    log2m_req = required_log2M(p.n, p.m_slack)
    log2m_act = math.log2(p.M)
    return ConstraintReport(
        noise_ok=noise_margin > 0,
        noise_margin=noise_margin,
        constellation_ok=log2m_act > log2m_req,
        log2M_required=log2m_req,
        log2M_actual=log2m_act,
        snr_db=max_snr_db(p.n, p.m_slack),
        capacity_bits=secrecy_capacity(p.n, log2m_act),
    )


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
