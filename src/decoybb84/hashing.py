"""Toeplitz universal hashing over GF(2) for error verification and privacy
amplification.

A seed of ``in_len + out_len - 1`` uniformly random bits defines a Toeplitz
matrix T with T[i, j] = seed[in_len - 1 + i - j]; hashing is the matrix-vector
product over GF(2). For any two distinct inputs, a uniformly drawn seed maps
them to the same output with probability exactly 2**(-out_len), which is the
universal_2 collision guarantee.

Only the out_len wanted outputs are evaluated. Up to 64 outputs (every
verification tag) each is one direct parity of the seed window against the
reversed input. More outputs (privacy amplification) come from one circular
FFT convolution of power-of-two length n >= in_len + out_len - 1: the linear
convolution ends at index 2*in_len + out_len - 3, so the terms aliased onto
the window [in_len - 1, in_len - 1 + out_len) would come from indices
>= in_len - 1 + n, past that end, and the window is wrap-free.

Bit order convention: index 0 is the first transmitted bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .keylength import correctness_hash_length


@dataclass(frozen=True)
class ToeplitzSeed:
    """Diagonal bits of a Toeplitz matrix mapping in_len bits to out_len bits."""

    bits: np.ndarray
    in_len: int
    out_len: int

    def __post_init__(self) -> None:
        if self.out_len > self.in_len:
            raise ValueError(f"output length {self.out_len} exceeds input length {self.in_len}")
        if self.out_len < 0:
            raise ValueError("output length must be nonnegative")
        expected = self.in_len + self.out_len - 1 if self.out_len > 0 else 0
        if len(self.bits) != max(expected, 0):
            raise ValueError(
                f"seed must have in_len + out_len - 1 = {expected} bits, got {len(self.bits)}"
            )


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform bit string of length n."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def sample_hash(in_len: int, out_len: int, rng: np.random.Generator) -> ToeplitzSeed:
    """Draw a uniformly random hash function from the Toeplitz family."""
    if out_len > in_len:
        raise ValueError(f"output length {out_len} exceeds input length {in_len}")
    n_bits = in_len + out_len - 1 if out_len > 0 else 0
    return ToeplitzSeed(bits=random_bits(n_bits, rng), in_len=in_len, out_len=out_len)


# Up to this many outputs each output bit is one direct parity; above it
# a single FFT is cheaper.
_DIRECT_MAX_OUTPUTS = 64


def hash_bits(seed: ToeplitzSeed, x: np.ndarray) -> np.ndarray:
    """Hash a bit string: out[i] = XOR_j seed[in_len - 1 + i - j] * x[j].

    Linear over GF(2): hash(s, x ^ y) = hash(s, x) ^ hash(s, y).
    """
    x = np.asarray(x, dtype=np.uint8)
    in_len, out_len = seed.in_len, seed.out_len
    if len(x) != in_len:
        raise ValueError(f"input has {len(x)} bits, hash expects {in_len}")
    if out_len <= _DIRECT_MAX_OUTPUTS:
        reversed_x = np.ascontiguousarray(x[::-1])
        return np.array(
            [np.count_nonzero(seed.bits[i : i + in_len] & reversed_x) & 1 for i in range(out_len)],
            dtype=np.uint8,
        )
    n = 1 << (in_len + out_len - 2).bit_length()
    spectrum = np.fft.rfft(seed.bits, n) * np.fft.rfft(x, n)
    window = np.fft.irfft(spectrum, n)[in_len - 1 : in_len - 1 + out_len]
    counts = np.rint(window).astype(np.int64)
    if np.max(np.abs(window - counts)) > 0.25:
        raise FloatingPointError("FFT convolution lost integer precision")
    return (counts & 1).astype(np.uint8)


def toeplitz_matrix(seed: ToeplitzSeed) -> np.ndarray:
    """Explicit matrix with T[i, j] = seed[in_len - 1 + i - j]; reference
    construction for hash_bits."""
    i = np.arange(seed.out_len)[:, None]
    j = np.arange(seed.in_len)[None, :]
    return seed.bits[seed.in_len - 1 + i - j]


def verify_keys(
    z_a: np.ndarray,
    z_b: np.ndarray,
    eps_cor: float,
    rng: np.random.Generator,
) -> Tuple[bool, int]:
    """Error verification: hash both keys with one freshly drawn function of
    length ceil(log2(2/eps_cor)) and compare. Identical keys always pass;
    distinct keys pass with probability at most eps_cor / 2. Returns the
    verdict and the number of hash bits disclosed."""
    if len(z_a) != len(z_b):
        raise ValueError("keys must have equal length")
    out_len = correctness_hash_length(eps_cor)
    seed = sample_hash(len(z_a), out_len, rng)
    passed = bool(np.array_equal(hash_bits(seed, z_a), hash_bits(seed, z_b)))
    return passed, out_len


def privacy_amplify(
    z: np.ndarray, l: int, rng: np.random.Generator
) -> Tuple[np.ndarray, ToeplitzSeed]:
    """Compress a verified key to ``l`` bits with a freshly drawn hash. The
    seed is returned so the peer can apply the identical function."""
    if l > len(z):
        raise ValueError(f"cannot extract {l} bits from a {len(z)}-bit key")
    seed = sample_hash(len(z), l, rng)
    return hash_bits(seed, z), seed


def collision_rate(
    x: np.ndarray,
    y: np.ndarray,
    out_len: int,
    n_seeds: int,
    rng: np.random.Generator,
    chunk: int = 100_000,
) -> float:
    """Monte Carlo collision frequency of two fixed inputs over fresh seeds.

    Vectorized over seeds: by linearity a collision is hash(seed, x ^ y) == 0,
    and every output bit is a windowed inner product of the seed with the
    difference pattern, so a seed batch reduces to one integer matmul. The
    batch path matches hash_bits bit-exactly (asserted in the test suite).
    """
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != y.shape:
        raise ValueError("inputs must have equal length")
    in_len = len(x)
    diff = (x ^ y).astype(np.int64)
    if out_len == 0 or not diff.any():
        return 1.0
    seed_len = in_len + out_len - 1
    # band[p, i] = diff[in_len - 1 + i - p] wherever that index is valid
    band = np.zeros((seed_len, out_len), dtype=np.int64)
    for i in range(out_len):
        for p in range(seed_len):
            j = in_len - 1 + i - p
            if 0 <= j < in_len:
                band[p, i] = diff[j]
    collisions = 0
    remaining = n_seeds
    while remaining > 0:
        batch = min(chunk, remaining)
        seeds = rng.integers(0, 2, size=(batch, seed_len), dtype=np.int64)
        outs = (seeds @ band) & 1
        collisions += int(np.sum(~outs.any(axis=1)))
        remaining -= batch
    return collisions / n_seeds


def bits_to_hex(bits: np.ndarray) -> str:
    """Hex encoding, first bit = most significant bit of the first nibble
    (zero-padded on the right to a multiple of 4)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) == 0:
        return ""
    pad = (-len(bits)) % 4
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    digits = padded.reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
    return "".join(f"{d:x}" for d in digits)


def bits_from_hex(text: str, n_bits: int) -> np.ndarray:
    """Inverse of bits_to_hex for a known bit length."""
    bits: List[int] = []
    for ch in text:
        value = int(ch, 16)
        bits.extend((value >> shift) & 1 for shift in (3, 2, 1, 0))
    if len(bits) < n_bits:
        raise ValueError(f"hex string too short for {n_bits} bits")
    return np.array(bits[:n_bits], dtype=np.uint8)


def load_test_vectors(text: str) -> List[Tuple[np.ndarray, ToeplitzSeed, np.ndarray]]:
    """Parse Toeplitz test vectors: one line each of
    'in_len out_len hex(input) hex(seed) hex(output)' in the bits_to_hex
    encoding; blank lines and lines starting with '#' are skipped."""
    vectors = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        in_s, out_s, x_hex, seed_hex, out_hex = line.split()
        in_len, out_len = int(in_s), int(out_s)
        x = bits_from_hex(x_hex, in_len)
        seed = ToeplitzSeed(
            bits=bits_from_hex(seed_hex, in_len + out_len - 1),
            in_len=in_len,
            out_len=out_len,
        )
        out = bits_from_hex(out_hex, out_len)
        vectors.append((x, seed, out))
    return vectors
