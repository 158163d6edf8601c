"""Toeplitz hashing tests: pinned vectors (independent matrix oracle),
GF(2) linearity, both evaluation paths against a direct convolution,
collision statistics and the verification/amplification wrappers."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoybb84 import hashing
from decoybb84.hashing import (
    ToeplitzSeed,
    bits_from_hex,
    bits_to_hex,
    collision_rate,
    hash_bits,
    load_test_vectors,
    privacy_amplify,
    random_bits,
    sample_hash,
    toeplitz_matrix,
    verify_keys,
)

from conftest import philox

VECTORS = Path(__file__).parent / "data" / "toeplitz_vectors.txt"


class TestSeedStructure:
    def test_seed_length(self, rng):
        seed = sample_hash(64, 16, rng)
        assert len(seed.bits) == 64 + 16 - 1
        assert seed.in_len == 64 and seed.out_len == 16

    def test_deterministic_under_fixed_rng(self):
        a = sample_hash(32, 8, philox(99))
        b = sample_hash(32, 8, philox(99))
        assert np.array_equal(a.bits, b.bits)

    def test_empty_output_domain(self, rng):
        seed = sample_hash(16, 0, rng)
        assert len(hash_bits(seed, random_bits(16, rng))) == 0

    def test_output_longer_than_input_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_hash(8, 9, rng)

    def test_wrong_seed_length_rejected(self):
        with pytest.raises(ValueError):
            ToeplitzSeed(bits=np.zeros(10, dtype=np.uint8), in_len=8, out_len=4)


class TestPinnedVectors:
    def test_convolution_matches_pinned_outputs(self):
        vectors = load_test_vectors(VECTORS.read_text())
        assert len(vectors) == 6
        for x, seed, expected in vectors:
            assert np.array_equal(hash_bits(seed, x), expected)

    def test_matrix_construction_matches_pinned_outputs(self):
        for x, seed, expected in load_test_vectors(VECTORS.read_text()):
            out = (toeplitz_matrix(seed) @ x) % 2
            assert np.array_equal(out.astype(np.uint8), expected)

    def test_hex_round_trip(self, rng):
        bits = random_bits(37, rng)
        assert np.array_equal(bits_from_hex(bits_to_hex(bits), 37), bits)


class TestLinearity:
    @pytest.mark.parametrize("in_len,out_len", [(40, 12), (257, 64), (5000, 700)])
    def test_xor_linearity_exact(self, in_len, out_len):
        rng = philox(in_len)
        for _ in range(10):
            seed = sample_hash(in_len, out_len, rng)
            x = random_bits(in_len, rng)
            y = random_bits(in_len, rng)
            lhs = hash_bits(seed, x ^ y)
            rhs = hash_bits(seed, x) ^ hash_bits(seed, y)
            assert np.array_equal(lhs, rhs)

    def test_zero_maps_to_zero(self, rng):
        seed = sample_hash(64, 16, rng)
        assert not hash_bits(seed, np.zeros(64, dtype=np.uint8)).any()

    def test_equal_inputs_always_collide(self, rng):
        x = random_bits(64, rng)
        for _ in range(50):
            seed = sample_hash(64, 16, rng)
            assert np.array_equal(hash_bits(seed, x), hash_bits(seed, x))

    def test_fft_path_matches_direct_convolution(self):
        rng = philox(4242)
        in_len, out_len = 40_000, 1_000  # forces the FFT branch
        seed = sample_hash(in_len, out_len, rng)
        x = random_bits(in_len, rng)
        direct = np.convolve(seed.bits.astype(np.int64), x.astype(np.int64))
        direct = (direct[in_len - 1 : in_len - 1 + out_len] & 1).astype(np.uint8)
        assert np.array_equal(hash_bits(seed, x), direct)


def convolution_window(seed: ToeplitzSeed, x: np.ndarray) -> np.ndarray:
    """Reference: the binary convolution of seed and input, reduced mod 2 on
    the window [in_len - 1, in_len - 1 + out_len). numpy's "valid" mode
    returns exactly that window of the full convolution."""
    if seed.out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    counts = np.convolve(seed.bits.astype(np.int64), x.astype(np.int64), "valid")
    return (counts & 1).astype(np.uint8)


def assert_matches_reference(in_len: int, out_len: int, rng: np.random.Generator) -> None:
    seed = sample_hash(in_len, out_len, rng)
    x = random_bits(in_len, rng)
    assert np.array_equal(hash_bits(seed, x), convolution_window(seed, x)), (in_len, out_len)


class TestOutputSizedPaths:
    @pytest.mark.parametrize("out_len", [1, 41, 64, 65])
    def test_few_outputs_of_a_long_key(self, out_len):
        # 64 outputs is the last direct-parity size, 65 the first FFT size
        assert_matches_reference(100_003, out_len, philox(out_len))

    @pytest.mark.parametrize(
        "in_len,out_len",
        [
            (12_000, (1 << 14) + 1 - 12_000),  # in_len + out_len - 1 == 2**14
            (12_000, (1 << 14) - 12_000),  # one below
            (12_000, (1 << 14) + 2 - 12_000),  # one above
            (3_000, 3_000),  # square matrix
        ],
    )
    def test_fft_power_of_two_boundaries(self, in_len, out_len):
        assert_matches_reference(in_len, out_len, philox(in_len + out_len))

    def test_random_sizes(self):
        rng = philox(2024)
        for _ in range(150):
            in_len = int(rng.integers(1, 5000))
            assert_matches_reference(in_len, int(rng.integers(0, in_len + 1)), rng)


@st.composite
def hash_inputs(draw):
    """A seed and two inputs; sizes straddle the direct/FFT switch at 64."""
    in_len = draw(st.integers(1, 160))
    out_len = draw(st.integers(0, in_len))

    def bits(n):
        packed = draw(st.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8))
        return np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:n]

    seed_len = in_len + out_len - 1 if out_len > 0 else 0
    seed = ToeplitzSeed(bits=bits(seed_len), in_len=in_len, out_len=out_len)
    return seed, bits(in_len), bits(in_len)


class TestHashProperties:
    @settings(max_examples=200, deadline=None)
    @given(hash_inputs())
    def test_linear_over_gf2(self, inputs):
        seed, x, y = inputs
        assert np.array_equal(hash_bits(seed, x ^ y), hash_bits(seed, x) ^ hash_bits(seed, y))

    @settings(max_examples=200, deadline=None)
    @given(hash_inputs())
    def test_equals_matrix_product(self, inputs):
        seed, x, _ = inputs
        expected = ((toeplitz_matrix(seed).astype(np.int64) @ x) % 2).astype(np.uint8)
        assert np.array_equal(hash_bits(seed, x), expected)


class TestCollisions:
    def test_vectorized_rate_matches_per_call_hashing(self):
        # The batched matmul path must agree with the public API seed by seed.
        in_len, out_len = 48, 8
        rng = philox(17)
        x = random_bits(in_len, rng)
        y = x.copy()
        y[5] ^= 1
        y[30] ^= 1
        seeds = [sample_hash(in_len, out_len, philox(1000 + i)) for i in range(500)]
        per_call = sum(
            int(np.array_equal(hash_bits(s, x), hash_bits(s, y))) for s in seeds
        )
        diff = (x ^ y).astype(np.int64)
        band_hits = 0
        for s in seeds:
            out = hash_bits(s, diff.astype(np.uint8))
            band_hits += int(not out.any())
        assert per_call == band_hits  # collision iff the difference hashes to zero

    def test_collision_rate_quick(self, rng):
        x = random_bits(48, rng)
        y = x.copy()
        y[0] ^= 1
        rate = collision_rate(x, y, out_len=8, n_seeds=20_000, rng=rng)
        expected = 2.0**-8
        assert rate <= expected + 3 * np.sqrt(expected / 20_000)

    def test_identical_inputs_rate_is_one(self, rng):
        x = random_bits(32, rng)
        assert collision_rate(x, x.copy(), out_len=8, n_seeds=100, rng=rng) == 1.0


class TestVerifyKeys:
    def test_equal_keys_always_pass(self, rng):
        z = random_bits(256, rng)
        for _ in range(50):
            passed, disclosed = verify_keys(z, z.copy(), 1e-15, rng)
            assert passed
            assert disclosed == 51

    def test_distinct_keys_rarely_pass(self):
        rng = philox(31)
        z_a = random_bits(128, rng)
        z_b = z_a.copy()
        z_b[7] ^= 1
        eps_cor = 2.0**-5  # 6 hash bits -> collision probability 2^-6
        passes = sum(verify_keys(z_a, z_b, eps_cor, rng)[0] for _ in range(5000))
        rate = passes / 5000
        assert rate <= 2.0**-6 + 3 * np.sqrt(2.0**-6 / 5000)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            verify_keys(random_bits(8, rng), random_bits(9, rng), 0.5, rng)


class TestPrivacyAmplify:
    def test_zero_length_key(self, rng):
        key, seed = privacy_amplify(random_bits(64, rng), 0, rng)
        assert len(key) == 0
        assert seed.out_len == 0

    def test_peers_agree_with_shared_seed(self, rng):
        z = random_bits(512, rng)
        key_a, seed = privacy_amplify(z, 100, rng)
        key_b = hash_bits(seed, z)
        assert np.array_equal(key_a, key_b)
        assert len(key_a) == 100

    def test_oversized_request_rejected(self, rng):
        with pytest.raises(ValueError):
            privacy_amplify(random_bits(16, rng), 17, rng)
