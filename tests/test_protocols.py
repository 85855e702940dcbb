import math

import numpy as np
import pytest

from csikey.errors import ParameterError
from csikey.numerics import make_rng
from csikey.params import secrecy_capacity
from csikey.protocols import (_majority_vote, bits_to_hex, decrypt,
                              encode_symbols, encrypt, min_message_count,
                              run_key_agreement, universal_hash)
from csikey.wiretap import SystemParams, bob_decode, make_instance
from protocol_reference import (dense_hash, reference_key_agreement,
                                toeplitz_matrix, unique_vote)


def _params(**kw):
    base = dict(n=16, m_rx=32, M=16, alpha=0.001, k=1.0)
    base.update(kw)
    return SystemParams(**base)


def _hash_seed(input_len, eta, rng):
    """The seed draw run_key_agreement makes for input_len bits."""
    return rng.integers(0, 2, size=input_len + eta - 1, dtype=np.uint8)


def _stream(seed, stream):
    """A generator on spawn key (stream,) of seed; make_rng uses key (0,)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.default_rng(ss)


def test_encode_symbols_little_endian():
    bits = encode_symbols(np.array([5, 0]), 16)
    assert bits.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]
    assert bits_to_hex(bits) == "05"


def test_hash_linearity_and_zero():
    rng = make_rng(0)
    seed = _hash_seed(80, 24, rng)
    zero = np.zeros(80, dtype=np.uint8)
    assert not np.any(universal_hash(seed, zero))
    x = rng.integers(0, 2, 80, dtype=np.uint8)
    y = rng.integers(0, 2, 80, dtype=np.uint8)
    hx, hy, hxy = (universal_hash(seed, v) for v in (x, y, x ^ y))
    assert np.array_equal((hx + hy) % 2, hxy)


def test_toeplitz_matrix_entries():
    seed = _hash_seed(7, 4, make_rng(9))
    t = toeplitz_matrix(seed, 7)
    assert t.shape == (4, 7)
    for i in range(4):
        for j in range(7):
            assert t[i, j] == seed[7 - 1 + i - j]


@pytest.mark.parametrize("length,eta", [(7, 4), (80, 24), (17152, 256)])
def test_hash_matches_dense_toeplitz(length, eta):
    rng = make_rng(length)
    seed = _hash_seed(length, eta, rng)
    for bits in (np.zeros(length, dtype=np.uint8),
                 np.ones(length, dtype=np.uint8),
                 rng.integers(0, 2, length, dtype=np.uint8)):
        h = universal_hash(seed, bits)
        assert h.dtype == np.int64
        assert np.array_equal(h, dense_hash(seed, bits))


@pytest.mark.parametrize("eta", [1, 4])
def test_hash_returns_seed_length_minus_input_length_plus_one(eta):
    seed = _hash_seed(10, eta, make_rng(1))
    for length in (1, 9, 10, 9 + eta):
        h = universal_hash(seed, np.ones(length, dtype=np.uint8))
        assert h.shape == (len(seed) - length + 1,)


@pytest.mark.parametrize("length", [14, 15, 20, 0])
def test_hash_seed_shorter_than_input_raises(length):
    # np.convolve's "valid" mode would swap the operands and return
    # length - 13 + 1 bits, as if eta were 0 or negative; an empty input
    # has no hash either.
    seed = _hash_seed(10, 4, make_rng(1))
    with pytest.raises(ParameterError,
                       match=r"len\(bits\) must be an integer in \[1, 13\]"):
        universal_hash(seed, np.ones(length, dtype=np.uint8))


def test_hash_collision_rate():
    rng = make_rng(2)
    eta, length, pairs = 32, 64, 10**5
    seed = _hash_seed(length, eta, rng)
    t = toeplitz_matrix(seed, length).astype(np.int64)
    xs = rng.integers(0, 2, size=(pairs, length))
    ys = rng.integers(0, 2, size=(pairs, length))
    diff = (xs ^ ys)
    distinct = np.any(diff, axis=1)
    hashes_equal = ~np.any((diff @ t.T) % 2, axis=1)
    collisions = int(np.sum(distinct & hashes_equal))
    assert collisions <= 5


def test_key_agreement_capacity_gate():
    p = _params()
    eta = 64
    c = min_message_count(p, eta)
    per = secrecy_capacity(p.n, math.log2(p.M))
    assert c * per > eta
    assert (c - 1) * per <= eta or c == 1
    assert run_key_agreement(p, eta, "none", make_rng(0))["c"] == c
    with pytest.raises(ParameterError, match="unknown coder 'bogus'"):
        run_key_agreement(p, 8, "bogus", make_rng(0))


def test_key_agreement_noiseless_success():
    p = _params(noise_scale=0.0)
    tr = run_key_agreement(p, 32, "none", make_rng(3))
    assert tr["success"]
    assert tr["alice_key"] == tr["bob_key"]
    assert tr["message_errors"] == 0
    assert len(tr["messages"]) == min_message_count(p, 32)
    # eta bits -> ceil(eta/8) hex bytes
    assert len(tr["alice_key"]) == 2 * ((32 + 7) // 8)


def test_key_agreement_success_iff_all_messages_decode():
    p = _params(alpha=0.5)  # noisy enough for occasional symbol errors
    saw_failure = False
    for seed in range(30):
        tr = run_key_agreement(p, 16, "none", _stream(seed, 7))
        if tr["message_errors"] == 0:
            assert tr["success"]
        else:
            saw_failure = True
            assert not tr["success"] or tr["message_errors"] == 0
    assert saw_failure  # the noise level must actually exercise failures


def test_majority_vote_all_patterns():
    votes = np.array(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"))
    votes = votes.reshape(3, -1)
    assert votes.shape == (3, 64)
    assert np.array_equal(_majority_vote(votes), unique_vote(votes))


# alpha=0.02 decodes every message; at alpha=0.1 the votes disagree, some
# with no majority, and messages fail
@pytest.mark.parametrize("alpha", [0.02, 0.1])
@pytest.mark.parametrize("seed", range(5))
def test_key_agreement_matches_reference(seed, alpha):
    p = SystemParams(n=64, m_rx=128, M=16, alpha=alpha)
    assert (run_key_agreement(p, 256, "repetition-3", make_rng(seed))
            == reference_key_agreement(p, 256, "repetition-3", make_rng(seed)))


def test_repetition_coding_reduces_errors():
    p = _params(alpha=0.05)
    eta = 16
    uncoded = coded = 0
    for seed in range(40):
        uncoded += run_key_agreement(p, eta, "none",
                                     _stream(seed, 1))["message_errors"]
        coded += run_key_agreement(p, eta, "repetition-3",
                                   _stream(seed, 2))["message_errors"]
    assert coded < uncoded


def test_cipher_round_trip_and_wrong_key():
    p = _params(noise_scale=0.0)
    rng = make_rng(4)
    s = rng.integers(0, p.M, size=p.n)
    for _ in range(50):
        ch = make_instance(p, rng, 1)
        m = rng.integers(0, 2, size=p.n)
        y = encrypt(p, s, m, ch, rng)
        assert np.array_equal(decrypt(p, s, y, ch), [m])
    # wrong-key scrambling
    bits = errs = 0
    for _ in range(100):
        ch = make_instance(p, rng, 1)
        m = rng.integers(0, 2, size=p.n)
        y = encrypt(p, s, m, ch, rng)
        wrong = rng.integers(0, p.M, size=p.n)
        errs += int(np.sum(decrypt(p, wrong, y, ch) != m))
        bits += p.n
    assert errs / bits == pytest.approx(0.5, abs=0.06)


def test_cipher_symbol_identities():
    p = _params(n=4, m_rx=4, noise_scale=0.0)
    rng = make_rng(5)
    ch = make_instance(p, rng, 1)
    s = np.array([1, 5, 9, 13])
    zero = encrypt(p, s, np.zeros(4, dtype=int), ch, rng)
    assert np.array_equal(bob_decode(ch, zero, p), [s])
    ones = encrypt(p, np.zeros(4, dtype=int), np.ones(4, dtype=int), ch, rng)
    assert np.all(bob_decode(ch, ones, p) == p.M // 2)


def test_cipher_fresh_channel_randomizes_ciphertext():
    p = _params(n=4, m_rx=4)
    rng = make_rng(6)
    s = rng.integers(0, p.M, size=p.n)
    m = np.array([1, 0, 1, 0])
    e1 = encrypt(p, s, m, make_instance(p, rng, 1), rng)
    e2 = encrypt(p, s, m, make_instance(p, rng, 1), rng)
    assert not np.allclose(e1, e2)


def test_cipher_odd_m_rejected():
    p = _params(M=15)
    rng = make_rng(7)
    s = rng.integers(0, p.M, size=p.n)
    with pytest.raises(ParameterError, match="cipher requires even M"):
        encrypt(p, s, np.zeros(p.n, dtype=int), make_instance(p, rng, 1), rng)


def test_successive_instances_uncorrelated():
    p = _params(n=8, m_rx=8)
    rng = make_rng(8)
    prev = make_instance(p, rng, 1)
    corrs = []
    for _ in range(500):
        cur = make_instance(p, rng, 1)
        corrs.append(np.corrcoef(prev.A.ravel(), cur.A.ravel())[0, 1])
        prev = cur
    se = 1.0 / np.sqrt(prev.A.size)
    assert abs(np.mean(corrs)) < 3 * se / np.sqrt(len(corrs))
