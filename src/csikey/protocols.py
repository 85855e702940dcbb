"""Key agreement over the wiretap channel and the symmetric-key cipher,
as plain functions of SystemParams, arrays and a generator.

run_key_agreement sends c = min_message_count(p, eta) random symbol
vectors through fresh channels and condenses both parties' bits to an
eta-bit key with a Toeplitz universal hash, whose seed is a bit array
eta - 1 longer than the input.  The cipher hides a one-bit-per-antenna
message inside a shared secret s (an int64 array in Z_M^n), sent with SVD
precoding through the channel, one message per coherence interval (a fresh
channel each time); run_cipher sends them in ber_experiment's chunks.
"""

import math
from dataclasses import asdict

import numpy as np

from .errors import ParameterError, need_int, need_ints
from .params import check_secrecy_constraints, secrecy_capacity
from .wiretap import (CHUNK, Channels, SystemParams, _csi_invert, _hard_decision,
                      _make_instance, _transmit, channel_noise, csi_invert,
                      make_instance, random_message, transmit_to_bob)

VALID_CODERS = ("none", "repetition-3")


def encode_symbols(x: np.ndarray, M: int) -> np.ndarray:
    """Canonical bit encoding: per symbol, ceil(log2 M) bits, little-endian."""
    x = need_ints("x", x, 0, M - 1, (None,))
    b = math.ceil(math.log2(M))  # M >= 2, so at least one bit
    return ((x[:, None] >> np.arange(b)) & 1).reshape(-1).astype(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str | list[str]:
    """Bits as hex, little-endian; a stack (r, b) of bit rows gives r strings."""
    bits = need_ints("bits", bits, 0, 1, (..., None))
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if bits.ndim > 1:
        return [row.tobytes().hex() for row in packed]
    return packed.tobytes().hex()


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
    NumericalError.  Each message's channel work takes the unchecked _private forms.
    """
    c = min_message_count(p, eta)
    if coder not in VALID_CODERS:
        raise ParameterError(f"unknown coder {coder!r}")
    gate_ok = all(check_secrecy_constraints(p))
    reps = 3 if coder == "repetition-3" else 1
    sent, decoded = [], []
    for _ in range(c):
        ch = _make_instance(p, rng, 1)
        sent.append(random_message(p, rng))
        y = _transmit(ch, sent[-1], channel_noise(p, rng, (reps, p.m_rx)))
        votes = _hard_decision(_csi_invert(ch, y), p.M)
        decoded.append(votes[0] if reps == 1 else _majority_vote(votes))
    sent, decoded = np.stack(sent), np.stack(decoded)
    alice_bits, bob_bits = (encode_symbols(v.reshape(-1), p.M) for v in (sent, decoded))
    seed = rng.integers(0, 2, size=len(alice_bits) + eta - 1, dtype=np.uint8)
    alice_key = universal_hash(seed, alice_bits)
    bob_key = universal_hash(seed, bob_bits)
    messages = zip(*(bits_to_hex(b.reshape(c, -1)) for b in (alice_bits, bob_bits)))
    return {
        "params": asdict(p),
        "eta": eta,
        "c": c,
        "coder": coder,
        "encoding": "per-symbol little-endian, ceil(log2 M) bits",
        "constraint_gate_ok": gate_ok,
        "messages": [{"alice": a, "bob": b} for a, b in messages],
        "message_errors": int(np.sum(np.any(sent != decoded, axis=1))),
        "hash_seed": bits_to_hex(seed),
        "alice_key": bits_to_hex(alice_key),
        "bob_key": bits_to_hex(bob_key),
        "success": bool(np.array_equal(alice_key, bob_key)),
    }


def encrypt(p: SystemParams, s: np.ndarray, m: np.ndarray, ch: Channels,
            e: np.ndarray) -> np.ndarray:
    """Channel outputs of V((s + (M/2) m) mod M) plus e, one row per channel."""
    s = need_ints("s", s, 0, p.M - 1, (p.n,))
    if p.M % 2 != 0:
        raise ParameterError("cipher requires even M so that M/2 is a symbol")
    m = need_ints("m", m, 0, 1, (..., p.n))
    return transmit_to_bob(ch, (s + (p.M // 2) * m) % p.M, e)


def decrypt(p: SystemParams, s: np.ndarray, y: np.ndarray,
            ch: Channels) -> np.ndarray:
    """Invert the channel with the CSI-key, strip s modulo M, round each
    entry of (2/M)*((Sigma^-1 U^T y - s) mod M) to a bit (2 wraps to 0)."""
    s = need_ints("s", s, 0, p.M - 1, (p.n,))
    scaled = 2.0 / p.M * np.mod(csi_invert(ch, y) - s, p.M)
    return (np.rint(scaled).astype(np.int64) % 2).astype(np.int64)


def run_cipher(p: SystemParams, trials: int, rng: np.random.Generator) -> int:
    """Bit errors over trials random bit vectors under a secret s drawn first.
    Per chunk: the channels, each message's bits and noise, one stack."""
    need_int("trials", trials, 1)
    s = random_message(p, rng)  # the shared secret
    bit_errors = 0
    for start in range(0, trials, CHUNK):
        t = min(CHUNK, trials - start)
        ch = make_instance(p, rng, t)
        draws = [(rng.integers(0, 2, size=p.n), channel_noise(p, rng, p.m_rx))
                 for _ in range(t)]
        m, e = map(np.stack, zip(*draws))
        bit_errors += int(np.sum(decrypt(p, s, encrypt(p, s, m, ch, e), ch) != m))
    return bit_errors
