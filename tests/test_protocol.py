"""Protocol state-machine tests: sifting, the reconciliation model, the
acceptance test, stage ordering and end-to-end runs."""

import json
from dataclasses import replace

import numpy as np
import pytest

from decoybb84.decoy import DecoyBounds, Intensities
from decoybb84.errors import ConfigError
from decoybb84.keylength import AcceptanceSet, leak_ec_estimate
from decoybb84.protocol import (
    ObservedStats,
    ProtocolParams,
    acceptance_test,
    error_correct,
    precompute_key_length,
    run_protocol,
    sift,
)
from decoybb84.simulator import ChannelModel, Rounds, generate_rounds

from conftest import operating_point, philox


def make_params(n_z=4, n_x=2, num_signals=16, **overrides):
    defaults = dict(
        intensities=Intensities(values=(0.5, 0.1), probabilities=(0.7, 0.3)),
        p_z_alice=0.5,
        p_z_bob=0.5,
        num_signals=num_signals,
        eps_cor=1e-10,
        eps_sec_prime=1e-8,
        acceptance=AcceptanceSet(n_z=n_z, n_x=n_x, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.5),
        leak_ec=50.0,
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def synthetic_rounds(alice_basis, bob_basis, detected, alice_bits=None, bob_bits=None,
                     intensity_idx=None):
    n = len(alice_basis)
    zeros = np.zeros(n, dtype=np.uint8)
    return Rounds(
        photon_number=np.ones(n, dtype=np.int64),
        intensity_idx=np.zeros(n, dtype=np.int64) if intensity_idx is None else np.asarray(intensity_idx),
        alice_basis=np.asarray(alice_basis, dtype=bool),
        alice_bits=zeros if alice_bits is None else np.asarray(alice_bits, dtype=np.uint8),
        bob_basis=np.asarray(bob_basis, dtype=bool),
        detected=np.asarray(detected, dtype=bool),
        bob_bits=zeros if bob_bits is None else np.asarray(bob_bits, dtype=np.uint8),
        double_click=np.zeros(n, dtype=bool),
    )


class TestParamsValidation:
    def test_basis_probability_bounds(self):
        with pytest.raises(ConfigError):
            make_params(p_z_alice=0.0)
        with pytest.raises(ConfigError):
            make_params(p_z_bob=1.0)


class TestSift:
    def test_no_detections_aborts(self, rng):
        rounds = synthetic_rounds([True] * 8, [True] * 8, [False] * 8)
        result = sift(rounds, make_params(), rng)
        assert result.aborted
        assert "sifted sets too small" in result.reason

    def test_lossless_matched_run_fills_both_blocks(self, rng):
        basis = [True] * 4 + [False] * 2
        rounds = synthetic_rounds(basis, basis, [True] * 6)
        result = sift(rounds, make_params(n_z=4, n_x=2, num_signals=6), rng)
        assert not result.aborted
        assert len(result.z_block) == 4
        assert len(result.x_block) == 2
        assert result.observed.z.detections == (4, 0)

    def test_mismatched_bases_are_discarded(self, rng):
        rounds = synthetic_rounds([True] * 8, [False] * 8, [True] * 8)
        result = sift(rounds, make_params(), rng)
        assert result.aborted

    def test_subset_sampling_is_uniform(self):
        # 100 sifted key-basis rounds, block of 50: inclusion frequency of
        # every index should match 1/2.
        n, block = 100, 50
        rounds = synthetic_rounds([True] * n, [True] * n, [True] * n)
        params = make_params(n_z=block, n_x=0, num_signals=n)
        counts = np.zeros(n)
        trials = 2000
        for seed in range(trials):
            result = sift(rounds, params, philox(seed))
            counts[result.z_block.indices] += 1
        freq = counts / trials
        sigma = np.sqrt(0.5 * 0.5 / trials)
        assert abs(freq.mean() - 0.5) < 1e-12  # exactly block/n on average
        assert np.max(np.abs(freq - 0.5)) < 4.5 * sigma  # max over 100 binomials


class TestErrorCorrect:
    def test_identical_keys(self, rng):
        params = make_params(leak_ec=10.0)
        z = philox(1).integers(0, 2, 500, dtype=np.uint8)
        corrected, leak, ok = error_correct(z, z.copy(), params, rng)
        assert ok and leak == 0.0
        assert np.array_equal(corrected, z)

    def test_leak_estimate_matches_formula(self, rng):
        params = make_params(leak_ec=5000.0, f_ec=1.16)
        z_a = np.zeros(10**4, dtype=np.uint8)
        z_b = z_a.copy()
        z_b[:200] = 1  # exactly 2% errors
        corrected, leak, ok = error_correct(z_a, z_b, params, rng)
        assert leak == pytest.approx(1640.71029348512, rel=1e-10)
        assert leak == pytest.approx(leak_ec_estimate(10**4, 0.02, 1.16), rel=1e-15)
        assert ok and np.array_equal(corrected, z_a)

    def test_insufficient_allowance_fails(self, rng):
        params = make_params(leak_ec=100.0)
        z_a = np.zeros(10**4, dtype=np.uint8)
        z_b = z_a.copy()
        z_b[:200] = 1
        corrected, _, ok = error_correct(z_a, z_b, params, rng)
        assert not ok
        assert np.array_equal(corrected, z_b)

    def test_broken_corrector(self, rng):
        params = make_params(leak_ec=5000.0, ec_success_prob=0.0)
        z_a = np.zeros(100, dtype=np.uint8)
        z_b = z_a.copy()
        z_b[3] = 1
        corrected, _, ok = error_correct(z_a, z_b, params, rng)
        assert not ok
        assert np.array_equal(corrected, z_b)


def manual_bounds(s0l, s1l, xs1l, lam, mode="1decoy"):
    return DecoyBounds(
        mode=mode, s0_lower=s0l, s0_upper=1e9, s1_lower=s1l, x_s0_upper=1e9,
        x_s1_lower=xs1l, v1_upper=0.0, lambda_upper=lam, delta_ci=0.1,
    )


class TestAcceptanceTest:
    Q = AcceptanceSet(n_z=1000, n_x=500, s_z0=10, s_z1=100, s_x1=50, lambda_u=0.05)

    def stats(self):
        from decoybb84.decoy import BasisStats

        return ObservedStats(
            z=BasisStats(basis="Z", block_size=1000, detections=(700, 300), errors=(0, 0),
                         errors_post_ec=True),
            x=BasisStats(basis="X", block_size=500, detections=(350, 150), errors=(0, 0)),
            sifted_z=1200,
            sifted_x=600,
        )

    def test_exact_thresholds_accept(self):
        bounds = manual_bounds(10.0, 100.0, 50.0, 0.05)
        assert acceptance_test(self.stats(), bounds, self.Q)

    @pytest.mark.parametrize(
        "bounds",
        [
            manual_bounds(9.9, 100.0, 50.0, 0.05),
            manual_bounds(10.0, 99.0, 50.0, 0.05),
            manual_bounds(10.0, 100.0, 49.0, 0.05),
            manual_bounds(10.0, 100.0, 50.0, 0.0501),
        ],
    )
    def test_any_single_violation_rejects(self, bounds):
        assert not acceptance_test(self.stats(), bounds, self.Q)

    def test_bound_abort_rejects(self):
        bounds = replace(manual_bounds(10, 100, 50, None), abort_reason="abort: no estimate")
        assert not acceptance_test(self.stats(), bounds, self.Q)


NOISELESS = ChannelModel(transmittance=0.9, dark_count_prob=0.0, misalignment=0.0)
NOISY = ChannelModel(transmittance=0.9, dark_count_prob=1e-6, misalignment=0.005)


class TestRunProtocol:
    def test_honest_noiseless_run_delivers_equal_keys(self):
        point = operating_point(NOISELESS)
        params = point.params
        assert point.key_length > 0
        rng = philox(20)
        rounds = generate_rounds(params, NOISELESS, params.num_signals, rng)
        record = run_protocol(rounds, params, rng)
        assert record.outcome == "key"
        assert record.omega_ec and record.omega_ev and record.omega_at and record.omega_top
        assert len(record.key_alice) == len(record.key_bob) == record.key_length
        assert np.array_equal(record.key_alice, record.key_bob)
        assert record.key_length == precompute_key_length(params).length
        assert record.c_ev_bits == 41  # ceil(log2(2 / 1e-12))

    def test_noiseless_acceptance_robustness(self):
        # Thresholds sit 20% below the expected bounds; a noiseless channel
        # only fluctuates in its detection counts, so runs essentially
        # always pass.
        point = operating_point(NOISELESS)
        accepted = 0
        runs = 60
        for seed in range(runs):
            rng = philox(1000 + seed)
            rounds = generate_rounds(point.params, NOISELESS, point.params.num_signals, rng)
            accepted += run_protocol(rounds, point.params, rng).outcome == "key"
        assert accepted / runs >= 0.99

    def test_forced_ev_failure_aborts_with_empty_keys(self):
        point = operating_point(NOISY)
        params = replace(point.params, ec_success_prob=0.0)
        rng = philox(3)
        rounds = generate_rounds(params, NOISY, params.num_signals, rng)
        record = run_protocol(rounds, params, rng)
        assert record.outcome == "abort"
        assert record.abort_stage == "error_verification"
        assert not record.omega_ev
        assert record.key_alice is None and record.key_bob is None

    def test_error_rate_above_half_aborts_at_verification(self):
        # A legal channel can push the realized QBER above 1/2; reconciliation
        # is then charged the maximal leak (h = 1) and the run aborts instead
        # of raising from inside the protocol.
        point = operating_point(NOISY)
        params = point.params
        flipped = ChannelModel(transmittance=0.9, dark_count_prob=1e-6, misalignment=0.7)
        rng = philox(6)
        rounds = generate_rounds(params, flipped, params.num_signals, rng)
        record = run_protocol(rounds, params, rng)
        assert record.outcome == "abort"
        assert record.omega_ec is False
        assert record.abort_stage == "error_verification"
        assert record.leak_estimate == pytest.approx(params.acceptance.n_z * params.f_ec)

    def test_stage_ordering_error_counts_after_verification(self):
        point = operating_point(NOISY)
        rng = philox(4)
        rounds = generate_rounds(point.params, NOISY, point.params.num_signals, rng)
        record = run_protocol(rounds, point.params, rng)
        stages = record.stages
        assert stages.index("error_verification") < stages.index("error_counting")
        assert stages.index("error_correction") < stages.index("error_verification")
        assert stages.index("decoy_bounds") < stages.index("acceptance_test")
        assert stages[0] == "parameter_agreement"

    def test_abort_iff_not_omega_top(self):
        point = operating_point(NOISY)
        for seed in range(12):
            rng = philox(300 + seed)
            rounds = generate_rounds(point.params, NOISY, point.params.num_signals, rng)
            record = run_protocol(rounds, point.params, rng)
            assert (record.outcome == "key") == record.omega_top

    def test_record_serialization_round_trips(self):
        point = operating_point(NOISELESS)
        rng = philox(5)
        rounds = generate_rounds(point.params, NOISELESS, point.params.num_signals, rng)
        record = run_protocol(rounds, point.params, rng)
        payload = json.loads(record.to_line())
        assert payload["outcome"] == record.outcome
        assert payload["key_length"] == record.key_length
        assert payload["key_alice"] == payload["key_bob"]


class TestFixedLengthDiscipline:
    def test_key_length_ignores_observed_statistics(self):
        # The key length is a function of pre-agreed parameters only; any
        # perturbation of observed statistics leaves it untouched.
        point = operating_point(NOISY)
        params = point.params
        baseline = precompute_key_length(params).length
        rng = philox(77)
        from decoybb84.decoy import BasisStats

        for _ in range(1000):
            n_z1 = int(rng.integers(0, 2000))
            ObservedStats(
                z=BasisStats(basis="Z", block_size=n_z1 + 100,
                             detections=(n_z1, 100), errors=(0, 0), errors_post_ec=True),
                x=BasisStats(basis="X", block_size=50, detections=(30, 20), errors=(1, 0)),
                sifted_z=n_z1 + 200,
                sifted_x=90,
            )
            assert precompute_key_length(params).length == baseline

    def test_key_length_constant_across_channels(self):
        point = operating_point(NOISY)
        lengths = set()
        for channel in (
            NOISY,
            ChannelModel(transmittance=0.7, dark_count_prob=1e-4, misalignment=0.02),
            ChannelModel(transmittance=0.95),
        ):
            rng = philox(9)
            rounds = generate_rounds(point.params, channel, point.params.num_signals, rng)
            record = run_protocol(rounds, point.params, rng)
            lengths.add(record.key_length)
        assert len(lengths) == 1


class TestCorrectnessBoundSmoke:
    def test_ev_collision_rate_within_bound(self):
        # Broken corrector: verification sees distinct keys every trial; the
        # pass rate is bounded by half of eps_cor (one extra hash bit).
        eps_cor = 2.0**-5
        params = make_params(eps_cor=eps_cor, leak_ec=5000.0, ec_success_prob=0.0)
        rng = philox(55)
        passes = 0
        trials = 3000
        for _ in range(trials):
            z_a = rng.integers(0, 2, 128, dtype=np.uint8)
            z_b = z_a.copy()
            z_b[rng.integers(0, 128)] ^= 1
            corrected, _, ok = error_correct(z_a, z_b, params, rng)
            assert not ok
            from decoybb84.hashing import verify_keys

            passed, _ = verify_keys(z_a, corrected, eps_cor, rng)
            passes += passed
        rate = passes / trials
        assert rate <= 2.0**-6 + 3 * np.sqrt(2.0**-6 / trials)
