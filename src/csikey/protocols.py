"""Key agreement over the wiretap channel and the symmetric-key cipher,
as plain functions of SystemParams, arrays and a generator.

run_key_agreement sends c = min_message_count(p, eta) random symbol
vectors through fresh channels and condenses both parties' bits to an
eta-bit key with a Toeplitz universal hash, whose seed is a bit array
eta - 1 longer than the input.  The cipher hides a one-bit-per-antenna
message inside a shared secret s (an int64 array in Z_M^n), sent with SVD
precoding through the channel, one message per coherence interval (a fresh
channel each time).
"""

import math
from dataclasses import asdict

import numpy as np

from .distributions import _psi_sample
from .errors import ParameterError, need_int, need_ints
from .params import check_secrecy_constraints, secrecy_capacity
from .wiretap import (Channels, SystemParams, _csi_invert, _hard_decision,
                      _make_instance, _transmit, channel_noise, csi_invert,
                      random_message, transmit_to_bob)

VALID_CODERS = ("none", "repetition-3")


def encode_symbols(x: np.ndarray, M: int) -> np.ndarray:
    """Canonical bit encoding: per symbol, ceil(log2 M) bits, little-endian."""
    return _encode_symbols(need_ints("x", x, 0, M - 1, (None,)), M)


def _encode_symbols(x: np.ndarray, M: int) -> np.ndarray:
    """encode_symbols of an integer vector x in [0, M)."""
    b = math.ceil(math.log2(M))  # M >= 2, so at least one bit
    return ((x[:, None] >> np.arange(b)) & 1).reshape(-1).astype(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    return _bits_to_hex(need_ints("bits", bits, 0, 1, (None,)))


def _bits_to_hex(bits: np.ndarray) -> str:
    """bits_to_hex of an integer vector of bits."""
    return np.packbits(bits, bitorder="little").tobytes().hex()


def universal_hash(seed: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """GF(2) Toeplitz product T @ bits, T[i, j] = seed[len(bits)-1+i-j],
    condensing the input to len(seed) - len(bits) + 1 bits: the valid part
    of a convolution, mod 2."""
    seed = need_ints("seed", seed, 0, 1, (None,))
    bits = need_ints("bits", bits, 0, 1, (None,))
    need_int("len(bits)", len(bits), 1, len(seed))
    # In float64 every partial sum is an integer of at most len(bits) < 2^53,
    # so the float convolution is exact, and faster than numpy's int64 one.
    return (np.convolve(seed.astype(float), bits.astype(float), "valid")
            % 2).astype(np.int64)


def min_message_count(p: SystemParams, eta: int) -> int:
    """Smallest c with c times the secrecy capacity strictly above eta."""
    need_int("eta", eta, 1)  # at most 2^53, so that eta / per is a float
    per = secrecy_capacity(p.n, math.log2(p.M))
    c = max(1, int(math.ceil(eta / per)))
    while c * per <= eta:
        c += 1
    return c


def _majority_vote(votes: np.ndarray) -> np.ndarray:
    """Per-symbol majority of three votes (rows); when all three differ,
    the smallest wins."""
    a, b, c = votes
    return np.where((a == b) | (a == c), a,
                    np.where(b == c, b, votes.min(axis=0)))


def run_key_agreement(p: SystemParams, eta: int, coder: str,
                      rng: np.random.Generator) -> dict:
    """Algorithm: exchange c = min_message_count(p, eta) random vectors, the
    fewest that carry more than eta secret bits, and hash both views to eta
    bits.

    Decode failures are recorded in the transcript, never raised; a
    numerical error (a CSI-key inversion that overflows) raises
    NumericalError.  Each message goes through the unchecked _private forms.
    """
    c = min_message_count(p, eta)
    if coder not in VALID_CODERS:
        raise ParameterError(f"unknown coder {coder!r}")
    gate_ok = all(check_secrecy_constraints(p))
    reps = 3 if coder == "repetition-3" else 1
    width = p.noise_width
    alice_bits, bob_bits, messages = [], [], []
    errors = 0
    for _ in range(c):
        ch = _make_instance(p, rng, 1)
        x = random_message(p, rng)
        y = _transmit(ch, x, _psi_sample(width, rng, (reps, p.m_rx)))
        votes = _hard_decision(_csi_invert(ch, y), p.M)
        x_hat = votes[0] if reps == 1 else _majority_vote(votes)
        errors += int(np.any(x_hat != x))
        alice_bits.append(_encode_symbols(x, p.M))
        bob_bits.append(_encode_symbols(x_hat, p.M))
        messages.append({"alice": _bits_to_hex(alice_bits[-1]),
                         "bob": _bits_to_hex(bob_bits[-1])})
    alice_bits = np.concatenate(alice_bits)
    bob_bits = np.concatenate(bob_bits)
    seed = rng.integers(0, 2, size=len(alice_bits) + eta - 1, dtype=np.uint8)
    alice_key = universal_hash(seed, alice_bits)
    bob_key = universal_hash(seed, bob_bits)
    return {
        "params": asdict(p),
        "eta": eta,
        "c": c,
        "coder": coder,
        "encoding": "per-symbol little-endian, ceil(log2 M) bits",
        "constraint_gate_ok": gate_ok,
        "messages": messages,
        "message_errors": errors,
        "hash_seed": _bits_to_hex(seed),
        "alice_key": _bits_to_hex(alice_key),
        "bob_key": _bits_to_hex(bob_key),
        "success": bool(np.array_equal(alice_key, bob_key)),
    }


def encrypt(p: SystemParams, s: np.ndarray, m: np.ndarray, ch: Channels,
            rng: np.random.Generator) -> np.ndarray:
    """Channel outputs of V((s + (M/2) m) mod M), one row per fresh channel."""
    s = need_ints("s", s, 0, p.M - 1, (p.n,))
    if p.M % 2 != 0:
        raise ParameterError("cipher requires even M so that M/2 is a symbol")
    m = need_ints("m", m, 0, 1, (..., p.n))
    symbols = (s + (p.M // 2) * m) % p.M
    return transmit_to_bob(ch, symbols, channel_noise(p, rng, ch.A.shape[:-1]))


def decrypt(p: SystemParams, s: np.ndarray, y: np.ndarray,
            ch: Channels) -> np.ndarray:
    """Invert the channel with the CSI-key, strip s modulo M, round each
    entry of (2/M)*((Sigma^-1 U^T y - s) mod M) to a bit (2 wraps to 0)."""
    s = need_ints("s", s, 0, p.M - 1, (p.n,))
    scaled = 2.0 / p.M * np.mod(csi_invert(ch, y) - s, p.M)
    return (np.rint(scaled).astype(np.int64) % 2).astype(np.int64)
