import math

import pytest

from csikey.errors import ParameterError
from csikey.params import (check_secrecy_constraints, design_table, max_snr_db,
                           min_alpha, required_log2M, secrecy_capacity)
from csikey.wiretap import SystemParams

TABLE_NS = [80, 128, 196, 256]
TABLE_LOG2M = [33.66, 51.33, 75.39, 96.0]
TABLE_SNR = [87.04, 139.2, 210.7, 272.18]
TABLE_CAPACITY = [12.44, 19.42, 29.13, 37.57]


def test_required_log2m_table():
    for n, want in zip(TABLE_NS, TABLE_LOG2M):
        assert required_log2M(n, 1.0) == pytest.approx(want, abs=0.05)


def test_required_log2m_closed_form():
    # log2(m) + n log2(log2 n) / log2(n), all logs base 2
    n, m = 64, 4.0
    want = math.log2(m) + n * math.log2(math.log2(n)) / math.log2(n)
    assert required_log2M(n, m) == pytest.approx(want, rel=1e-12)


def test_max_snr_table():
    for n, want in zip(TABLE_NS, TABLE_SNR):
        assert max_snr_db(n, 1.0) == pytest.approx(want, abs=0.1)


def test_secrecy_capacity_table():
    for n, log2m, want in zip(TABLE_NS, TABLE_LOG2M, TABLE_CAPACITY):
        assert secrecy_capacity(n, log2m) == pytest.approx(want, abs=0.05)


def test_min_alpha():
    assert min_alpha(16, 1.0, 1.0) == pytest.approx(4.0)
    assert min_alpha(16, 2.0, 2.0) == pytest.approx(8.0)


def test_small_n_rejected():
    with pytest.raises(ParameterError):
        required_log2M(3, 1.0)
    with pytest.raises(ParameterError):
        max_snr_db(2, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_secrecy_constraints_below_n_4_fail_the_constellation_bound(n):
    # The minimum log2 M is undefined below n = 4, so the gate reports the
    # constellation constraint as unmet instead of raising.
    p = SystemParams(n=n, m_rx=n, M=2**40, alpha=10.0)
    assert check_secrecy_constraints(p) == (True, False)


def test_secrecy_constraints_boundary_strict():
    n, k, m = 16, 1.0, 1.0
    # alpha exactly at sqrt(n) k^2 / m: strict inequality, so not ok
    p = SystemParams(n=n, m_rx=n, M=2**9, alpha=math.sqrt(n) * k**2 / m,
                     k=k, m_slack=m)
    noise_ok, constellation_ok = check_secrecy_constraints(p)
    assert not noise_ok
    assert constellation_ok  # log2 M = 9 > 8 required at n=16


def test_secrecy_constraints_satisfied():
    p = SystemParams(n=16, m_rx=16, M=2**9, alpha=4.1, k=1.0)
    assert check_secrecy_constraints(p) == (True, True)
    assert required_log2M(16) == pytest.approx(8.0)


def test_design_table_rows():
    rows = design_table(TABLE_NS)
    assert [r["n"] for r in rows] == TABLE_NS
    for row, l2m, snr, cap in zip(rows, TABLE_LOG2M, TABLE_SNR,
                                  TABLE_CAPACITY):
        assert row["log2M"] == pytest.approx(l2m, abs=0.05)
        assert row["snr_db"] == pytest.approx(snr, abs=0.1)
        assert row["capacity"] == pytest.approx(cap, abs=0.05)
