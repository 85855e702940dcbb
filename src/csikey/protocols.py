"""Key agreement over the wiretap channel and the symmetric-key cipher.

Key agreement sends c random symbol vectors through fresh channel
instances and condenses the exchanged bits to an eta-bit key with a
Toeplitz universal hash.  The cipher hides a one-bit-per-antenna message
inside a shared secret vector s, transmitted through the precoded channel,
one message per coherence interval (fresh instance each time).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError
from .params import check_secrecy_constraints
from .wiretap import (SystemParams, WiretapInstance, bob_decode, make_instance,
                      precode, random_message, transmit_to_bob)

CAPACITY_BASE = 1.01
VALID_CODERS = ("none", "repetition-3")


def symbol_bits(M: int) -> int:
    return max(1, int(math.ceil(math.log2(M))))


def encode_symbols(x: np.ndarray, M: int) -> np.ndarray:
    """Canonical bit encoding: per symbol, ceil(log2 M) bits, little-endian."""
    b = symbol_bits(M)
    x = np.asarray(x, dtype=np.int64)
    bits = (x[:, None] >> np.arange(b)) & 1
    return bits.reshape(-1).astype(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8),
                       bitorder="little").tobytes().hex()


@dataclass
class ToeplitzSeed:
    """Random bits defining one member of the 2-universal Toeplitz family."""

    bits: np.ndarray
    input_len: int
    eta: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8) & 1
        if self.bits.shape != (self.input_len + self.eta - 1,):
            raise ParameterError("seed length must be input_len + eta - 1")

    @classmethod
    def random(cls, input_len: int, eta: int, rng: np.random.Generator):
        return cls(rng.integers(0, 2, size=input_len + eta - 1,
                                dtype=np.uint8), input_len, eta)


def universal_hash(seed: ToeplitzSeed, bits: np.ndarray, eta: int) -> np.ndarray:
    """GF(2) Toeplitz product T @ bits, T[i, j] = seed.bits[input_len-1+i-j],
    condensing input to eta bits: the valid part of a convolution, mod 2."""
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if eta != seed.eta or bits.shape[0] != seed.input_len:
        raise ParameterError("seed sized for a different input/output length")
    return np.convolve(seed.bits.astype(np.int64), bits.astype(np.int64),
                       "valid") % 2


def secrecy_bits_per_message(p: SystemParams) -> float:
    return math.sqrt(p.n * math.log2(p.M) * math.log2(CAPACITY_BASE))


def min_message_count(p: SystemParams, eta: int) -> int:
    """Smallest c with 2c * sqrt(n log2M log2 1.01) strictly above eta."""
    per = 2.0 * secrecy_bits_per_message(p)
    c = max(1, int(math.ceil(eta / per)))
    while 2 * c * secrecy_bits_per_message(p) <= eta:
        c += 1
    return c


@dataclass
class KeyAgreementConfig:
    p: SystemParams
    eta: int
    c: int
    coder: str = "repetition-3"

    def __post_init__(self):
        if self.eta < 1:
            raise ParameterError("eta must be >= 1")
        if self.coder not in VALID_CODERS:
            raise ConfigurationError(f"unknown coder {self.coder!r}")
        if not 2 * self.c * secrecy_bits_per_message(self.p) > self.eta:
            raise ConfigurationError(
                f"c={self.c} messages carry at most "
                f"{2 * self.c * secrecy_bits_per_message(self.p):.3f} secret "
                f"bits, not enough for eta={self.eta}")


def _majority_vote(votes: np.ndarray) -> np.ndarray:
    """Per-symbol majority of three votes (rows); when all three differ,
    the smallest wins."""
    a, b, c = votes
    return np.where((a == b) | (a == c), a,
                    np.where(b == c, b, votes.min(axis=0)))


def _bob_receive_message(cfg: KeyAgreementConfig, inst: WiretapInstance,
                         x: np.ndarray, rng: np.random.Generator,
                         noise_scale: float) -> np.ndarray:
    reps = 3 if cfg.coder == "repetition-3" else 1
    votes = np.stack([
        bob_decode(inst, transmit_to_bob(inst, x, cfg.p, rng,
                                         noise_scale=noise_scale), cfg.p)
        for _ in range(reps)])
    return votes[0] if reps == 1 else _majority_vote(votes)


def run_key_agreement(cfg: KeyAgreementConfig, rng: np.random.Generator,
                      noise_scale: float = 1.0) -> dict:
    """Algorithm: exchange c random vectors, hash both views to eta bits.

    Failures are recorded in the transcript, never raised.
    """
    p = cfg.p
    gate = check_secrecy_constraints(p)
    alice_bits = []
    bob_bits = []
    messages = []
    errors = 0
    for _ in range(cfg.c):
        inst = make_instance(p, rng)
        x = random_message(p, rng)
        x_hat = _bob_receive_message(cfg, inst, x, rng, noise_scale)
        errors += int(np.any(x_hat != x))
        alice_bits.append(encode_symbols(x, p.M))
        bob_bits.append(encode_symbols(x_hat, p.M))
        messages.append({"alice": bits_to_hex(alice_bits[-1]),
                         "bob": bits_to_hex(bob_bits[-1])})
    alice_bits = np.concatenate(alice_bits)
    bob_bits = np.concatenate(bob_bits)
    seed = ToeplitzSeed.random(alice_bits.shape[0], cfg.eta, rng)
    alice_key = universal_hash(seed, alice_bits, cfg.eta)
    bob_key = universal_hash(seed, bob_bits, cfg.eta)
    return {
        "params": p.to_json(),
        "eta": cfg.eta,
        "c": cfg.c,
        "coder": cfg.coder,
        "encoding": "per-symbol little-endian, ceil(log2 M) bits",
        "constraint_gate_ok": bool(gate.noise_ok and gate.constellation_ok),
        "messages": messages,
        "message_errors": errors,
        "hash_seed": bits_to_hex(seed.bits),
        "alice_key": bits_to_hex(alice_key),
        "bob_key": bits_to_hex(bob_key),
        "success": bool(np.array_equal(alice_key, bob_key)),
    }


@dataclass
class CipherContext:
    """Shared secret s in Z_M^n (n*ceil(log2 M) key bits)."""

    s: np.ndarray
    p: SystemParams

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.int64)
        if self.s.shape != (self.p.n,):
            raise ParameterError("secret must have one symbol per antenna")
        if np.any(self.s < 0) or np.any(self.s >= self.p.M):
            raise ParameterError("secret entries must lie in [0, M)")

    @classmethod
    def random(cls, p: SystemParams, rng: np.random.Generator):
        return cls(rng.integers(0, p.M, size=p.n), p)


@dataclass
class EncryptionResult:
    symbols: np.ndarray      # (s + (M/2) m) mod M, in [0, M)
    precoded: np.ndarray     # V @ symbols
    channel_output: np.ndarray


def encrypt(ctx: CipherContext, m: np.ndarray, inst: WiretapInstance,
            rng: np.random.Generator, noise_scale: float = 1.0) -> EncryptionResult:
    """Transmit V((s + (M/2) m) mod M) through a fresh channel instance."""
    p = ctx.p
    if p.M % 2 != 0:
        raise ConfigurationError("cipher requires even M so that M/2 is a symbol")
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (p.n,) or np.any((m != 0) & (m != 1)):
        raise ParameterError("message must be a length-n bit vector")
    symbols = (ctx.s + (p.M // 2) * m) % p.M
    y = transmit_to_bob(inst, symbols, p, rng, noise_scale=noise_scale)
    return EncryptionResult(symbols, precode(inst, symbols), y)


def decrypt(ctx: CipherContext, y: np.ndarray, inst: WiretapInstance) -> np.ndarray:
    """Invert the channel with the CSI-key, strip s modulo M, round each
    entry of (2/M)*((Sigma^-1 U^T y - s) mod M) to a bit (2 wraps to 0)."""
    p = ctx.p
    scaled = 2.0 / p.M * np.mod(inst.invert(y) - ctx.s, p.M)
    return (np.rint(scaled).astype(np.int64) % 2).astype(np.int64)
