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

from .errors import ParameterError, need_int
from .params import check_secrecy_constraints, secrecy_capacity
from .wiretap import (Channels, SystemParams, bob_decode, channel_noise,
                      csi_invert, make_instance, random_message, symbol_array,
                      transmit_to_bob)

VALID_CODERS = ("none", "repetition-3")


def encode_symbols(x: np.ndarray, M: int) -> np.ndarray:
    """Canonical bit encoding: per symbol, ceil(log2 M) bits, little-endian."""
    b = math.ceil(math.log2(M))  # M >= 2, so at least one bit
    x = symbol_array(x, M, "symbols must lie in [0, M) as integers")
    if x.ndim != 1:
        raise ParameterError("symbols must form a 1-D array")
    bits = (x[:, None] >> np.arange(b)) & 1
    return bits.reshape(-1).astype(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8),
                       bitorder="little").tobytes().hex()


def universal_hash(seed: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """GF(2) Toeplitz product T @ bits, T[i, j] = seed[len(bits)-1+i-j],
    condensing the input to len(seed) - len(bits) + 1 bits: the valid part
    of a convolution, mod 2."""
    seed = np.asarray(seed, dtype=np.uint8) & 1
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if seed.ndim != 1 or bits.ndim != 1 or not 0 < len(bits) <= len(seed):
        raise ParameterError("need 1-D arrays with 0 < input length <= seed length")
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
    NumericalError.
    """
    c = min_message_count(p, eta)
    if coder not in VALID_CODERS:
        raise ParameterError(f"unknown coder {coder!r}")
    gate_ok = all(check_secrecy_constraints(p))
    reps = 3 if coder == "repetition-3" else 1
    alice_bits, bob_bits, messages = [], [], []
    errors = 0
    for _ in range(c):
        ch = make_instance(p, rng, 1)
        x = random_message(p, rng)
        y = transmit_to_bob(ch, x, channel_noise(p, rng, (reps, p.m_rx)))
        votes = bob_decode(ch, y, p)
        x_hat = votes[0] if reps == 1 else _majority_vote(votes)
        errors += int(np.any(x_hat != x))
        alice_bits.append(encode_symbols(x, p.M))
        bob_bits.append(encode_symbols(x_hat, p.M))
        messages.append({"alice": bits_to_hex(alice_bits[-1]),
                         "bob": bits_to_hex(bob_bits[-1])})
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
        "hash_seed": bits_to_hex(seed),
        "alice_key": bits_to_hex(alice_key),
        "bob_key": bits_to_hex(bob_key),
        "success": bool(np.array_equal(alice_key, bob_key)),
    }


def _check_secret(s, p: SystemParams) -> np.ndarray:
    """The shared secret s in Z_M^n (n*ceil(log2 M) key bits), as int64."""
    s = symbol_array(s, p.M, "secret entries must lie in [0, M) as integers")
    if s.shape != (p.n,):
        raise ParameterError("secret must have one symbol per antenna")
    return s


def encrypt(p: SystemParams, s: np.ndarray, m: np.ndarray, ch: Channels,
            rng: np.random.Generator) -> np.ndarray:
    """Channel outputs of V((s + (M/2) m) mod M), one row per fresh channel."""
    s = _check_secret(s, p)
    if p.M % 2 != 0:
        raise ParameterError("cipher requires even M so that M/2 is a symbol")
    m = symbol_array(m, 2, "message must be a length-n bit vector")
    if m.shape[-1:] != (p.n,):
        raise ParameterError("message must be a length-n bit vector")
    symbols = (s + (p.M // 2) * m) % p.M
    return transmit_to_bob(ch, symbols, channel_noise(p, rng, ch.A.shape[:-1]))


def decrypt(p: SystemParams, s: np.ndarray, y: np.ndarray,
            ch: Channels) -> np.ndarray:
    """Invert the channel with the CSI-key, strip s modulo M, round each
    entry of (2/M)*((Sigma^-1 U^T y - s) mod M) to a bit (2 wraps to 0)."""
    s = _check_secret(s, p)
    scaled = 2.0 / p.M * np.mod(csi_invert(ch, y) - s, p.M)
    return (np.rint(scaled).astype(np.int64) % 2).astype(np.int64)
