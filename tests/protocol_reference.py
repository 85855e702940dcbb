"""Slow reference implementations that the protocols are tested against:
the dense Toeplitz matrix and its matrix-vector hash, the per-symbol
np.unique majority vote, a key agreement that precodes and decodes each
repetition on its own with a full-matrices SVD of the channel and encodes
each message on its own, and a cipher run one message at a time.
"""

from dataclasses import asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from csikey.params import check_secrecy_constraints
from csikey.protocols import (bits_to_hex, decrypt, encode_symbols, encrypt,
                              min_message_count)
from csikey.wiretap import channel_noise, make_instance, random_message


def toeplitz_matrix(seed, input_len):
    """The (len(seed) - input_len + 1) x input_len matrix
    T[i, j] = seed[input_len - 1 + i - j] (a read-only view of the seed)."""
    return sliding_window_view(seed, input_len)[:, ::-1]


def dense_hash(seed, bits):
    """T @ bits mod 2 with the dense Toeplitz matrix."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    return (toeplitz_matrix(seed, len(bits)) @ bits.astype(np.int64)) % 2


def unique_vote(votes):
    """Per-column majority: the most frequent value, the smallest on ties."""
    out = np.empty(votes.shape[1], dtype=np.int64)
    for j in range(votes.shape[1]):
        vals, counts = np.unique(votes[:, j], return_counts=True)
        out[j] = vals[np.argmax(counts)]
    return out


def _full_bob_decode(u, sigma, y, p):
    """Bob's decoder on the first n rows of U^T y, with U m_rx x m_rx."""
    shaped = u.T @ np.asarray(y, dtype=float)
    est = np.rint(shaped[:p.n] / sigma[:p.n]).astype(np.int64)
    return np.clip(est, 0, p.M - 1)


def reference_key_agreement(p, eta, coder, rng):
    """run_key_agreement with the full SVD, the loop vote and the dense
    hash; it draws from rng in the same order."""
    c = min_message_count(p, eta)
    gate_ok = all(check_secrecy_constraints(p))
    reps = 3 if coder == "repetition-3" else 1
    alice_bits, bob_bits, messages = [], [], []
    errors = 0
    for _ in range(c):
        a = make_instance(p, rng, 1).A[0]
        u, sigma, vh = np.linalg.svd(a, full_matrices=True)
        x = random_message(p, rng)
        votes = np.stack([  # one noise draw per repetition
            _full_bob_decode(u, sigma, a @ (vh.T @ x.astype(float))
                             + channel_noise(p, rng, p.m_rx), p)
            for _ in range(reps)])
        x_hat = votes[0] if reps == 1 else unique_vote(votes)
        errors += int(np.any(x_hat != x))
        alice_bits.append(encode_symbols(x, p.M))
        bob_bits.append(encode_symbols(x_hat, p.M))
        messages.append({"alice": bits_to_hex(alice_bits[-1]),
                         "bob": bits_to_hex(bob_bits[-1])})
    alice_bits = np.concatenate(alice_bits)
    bob_bits = np.concatenate(bob_bits)
    seed = rng.integers(0, 2, size=len(alice_bits) + eta - 1, dtype=np.uint8)
    alice_key = dense_hash(seed, alice_bits)
    bob_key = dense_hash(seed, bob_bits)
    return {
        "params": asdict(p),
        "eta": eta,
        "c": c,
        "coder": coder,
        "encoding": "per-symbol little-endian, ceil(log2 M) bits",
        "constraint_gate_ok": gate_ok,
        "messages": messages,
        "message_errors": errors,
        "hash_seed": bits_to_hex(seed),
        "alice_key": bits_to_hex(alice_key),
        "bob_key": bits_to_hex(bob_key),
        "success": bool(np.array_equal(alice_key, bob_key)),
    }


def reference_cipher(p, trials, rng):
    """run_cipher one message at a time: a fresh channel, the message's bits
    and its noise, then encrypt and decrypt; it draws from rng in the same
    order."""
    s = random_message(p, rng)
    bit_errors = 0
    for _ in range(trials):
        ch = make_instance(p, rng, 1)
        m = rng.integers(0, 2, size=p.n)
        y = encrypt(p, s, m, ch, channel_noise(p, rng, p.m_rx))
        bit_errors += int(np.sum(decrypt(p, s, y, ch) != m))
    return bit_errors
