"""Simulator tests: detector model statistics vs closed forms, oracle
consistency, posterior equivalence, coverage machinery and the double-click
policy controls."""

import math
from dataclasses import replace

import numpy as np
import pytest

from decoybb84.decoy import EpsilonLedger, Intensities
from decoybb84.errors import ConfigError
from decoybb84.keylength import AcceptanceSet
from decoybb84.numerics import MAX_PHOTON_NUMBER, poisson_pmf
from decoybb84.optimizer import expected_stats
from decoybb84.protocol import ProtocolParams, sift
from decoybb84.simulator import (
    ChannelModel,
    CoverageReport,
    bayes_equivalence_test,
    bound_violations,
    cell_probabilities,
    detection_rates_by_basis,
    generate_rounds,
    sample_block_tallies,
    simulate_rounds,
    tally_truth,
    validate_bounds,
)

from conftest import operating_point, philox


def sim_params(mu=(0.5, 0.1), p_mu=(0.7, 0.3), p_z=0.5, p_z_alice=None,
               n=20000, n_z=64, n_x=64, **kw):
    return ProtocolParams(
        intensities=Intensities(values=mu, probabilities=p_mu),
        p_z_alice=p_z if p_z_alice is None else p_z_alice,
        p_z_bob=p_z,
        num_signals=n,
        eps_cor=1e-10,
        eps_sec_prime=1e-8,
        acceptance=AcceptanceSet(n_z=n_z, n_x=n_x, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.5),
        leak_ec=1000.0,
        **kw,
    )


def detection_closed_form(chan, no_signal):
    """P[any click] when no photon arrives with probability no_signal,
    under random double-click assignment: 1 - (1 - p_dc)^2 no_signal."""
    return 1.0 - (1.0 - chan.dark_count_prob) ** 2 * no_signal


def error_closed_form(chan, no_signal):
    """P[click and wrong bit] (matched bases) under random double-click
    assignment: a dark-only click is wrong half the time, a signal click with
    the misalignment unless the other detector's dark count makes it a
    double click."""
    p = chan.dark_count_prob
    dark_any = 1.0 - (1.0 - p) ** 2
    return no_signal * dark_any * 0.5 + (1.0 - no_signal) * ((1.0 - p) * chan.misalignment + p * 0.5)


def pulse_law(chan, mu):
    """The channel's (P[detect], P[detect and error]) for a Poisson pulse of
    mean mu: no photon arrives with probability exp(-mu eta)."""
    no_signal = math.exp(-mu * chan.survival)
    return chan.detection_and_error(1.0 - no_signal, no_signal)


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ChannelModel(transmittance=1.2)
        with pytest.raises(ConfigError):
            ChannelModel(transmittance=0.5, misalignment=-0.1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="double-click policy"):
            ChannelModel(transmittance=0.5, double_click_policy="drop")
        for policy in ("random", "discard"):
            assert ChannelModel(transmittance=0.5, double_click_policy=policy).double_click_policy == policy

    def test_closed_forms_at_limits(self):
        chan = ChannelModel(transmittance=1.0)
        assert pulse_law(chan, 0.0)[0] == 0.0
        # m = 0 photons: none arrives, with probability (1 - eta)^0 = 1.
        assert chan.detection_and_error(0.0, 1.0)[0] == 0.0
        dark_only = ChannelModel(transmittance=0.0, dark_count_prob=0.01)
        det, err = pulse_law(dark_only, 5.0)
        assert det == pytest.approx(1 - 0.99**2, rel=1e-12)
        assert err == pytest.approx((1 - 0.99**2) / 2, rel=1e-12)


class TestGenerateRounds:
    def test_noiseless_channel_has_no_errors(self):
        params = sim_params()
        chan = ChannelModel(transmittance=1.0)
        rounds = generate_rounds(params, chan, 20000, philox(1))
        matched = (rounds.alice_basis == rounds.bob_basis) & rounds.detected
        errors = rounds.alice_bits[matched] != rounds.bob_bits[matched]
        assert not errors.any()

    def test_detection_rate_matches_closed_form(self):
        params = sim_params(n=200_000)
        chan = ChannelModel(transmittance=0.3, dark_count_prob=1e-4, misalignment=0.02)
        rounds = generate_rounds(params, chan, params.num_signals, philox(2))
        for k_idx, mu in enumerate(params.intensities.values):
            sel = rounds.intensity_idx == k_idx
            n_sel = int(sel.sum())
            rate = float(rounds.detected[sel].mean())
            expected = detection_closed_form(chan, math.exp(-mu * chan.survival))
            sigma = math.sqrt(expected * (1 - expected) / n_sel)
            assert abs(rate - expected) < 3 * sigma

    def test_error_rate_matches_closed_form(self):
        params = sim_params(n=400_000)
        chan = ChannelModel(transmittance=0.5, dark_count_prob=1e-4, misalignment=0.03)
        rounds = generate_rounds(params, chan, params.num_signals, philox(3))
        matched = rounds.alice_basis == rounds.bob_basis
        for k_idx, mu in enumerate(params.intensities.values):
            sel = matched & (rounds.intensity_idx == k_idx)
            n_sel = int(sel.sum())
            err_rate = float(
                (rounds.detected[sel] & (rounds.alice_bits[sel] != rounds.bob_bits[sel])).mean()
            )
            expected = error_closed_form(chan, math.exp(-mu * chan.survival))
            sigma = math.sqrt(expected * (1 - expected) / n_sel)
            assert abs(err_rate - expected) < 4 * sigma

    def test_dark_count_only_detections_have_half_error_rate(self):
        # Opaque channel: every click is a dark count, so the assigned bit is
        # independent of the encoded bit.
        params = sim_params(n=400_000)
        chan = ChannelModel(transmittance=0.0, dark_count_prob=5e-3, misalignment=0.01)
        rounds = generate_rounds(params, chan, params.num_signals, philox(4))
        matched = (rounds.alice_basis == rounds.bob_basis) & rounds.detected
        n_det = int(matched.sum())
        assert n_det > 300
        err = float((rounds.alice_bits[matched] != rounds.bob_bits[matched]).mean())
        sigma = math.sqrt(0.25 / n_det)
        assert abs(err - 0.5) < 3 * sigma


class TestOracleTruth:
    def test_tallies_are_exactly_consistent_with_blocks(self):
        params = sim_params(n=40_000, n_z=400, n_x=300)
        chan = ChannelModel(transmittance=0.8, dark_count_prob=1e-4, misalignment=0.02)
        for seed in range(20):
            rng = philox(100 + seed)
            rounds, truth, observed = simulate_rounds(params, chan, params.num_signals, rng)
            assert truth is not None
            assert int(truth.s_z.sum()) == params.acceptance.n_z
            assert int(truth.s_x.sum()) == params.acceptance.n_x
            assert np.all(truth.v_z <= truth.s_z)
            assert np.all(truth.v_x <= truth.s_x)
            # total errors decompose over photon number exactly
            assert int(truth.v_z.sum()) == int(sum(observed.z.errors))
            assert int(truth.v_x.sum()) == int(sum(observed.x.errors))

    def test_expected_detections_decomposition(self):
        # sum_k n*_k = N_b: the posterior decomposition is a partition.
        params = sim_params(n=40_000, n_z=400, n_x=300)
        chan = ChannelModel(transmittance=0.8)
        _, truth, observed = simulate_rounds(params, chan, params.num_signals, philox(8))
        total = sum(
            truth.expected_detections(params.intensities, "Z", k) for k in range(2)
        )
        assert total == pytest.approx(params.acceptance.n_z, rel=1e-9)


class TestBasisIndependence:
    # Alice's basis bias makes Bob's two basis groups contain different
    # fractions of mismatched (photon-splitting) rounds; splitting rounds are
    # the double-click-prone ones, so the click policy decides whether Bob's
    # detection probability depends on his basis choice.
    ASYM = dict(mu=(1.0, 0.3), p_mu=(0.6, 0.4), p_z=0.5, p_z_alice=0.85, n=400_000)

    def test_random_assignment_keeps_detection_basis_independent(self):
        params = sim_params(**self.ASYM)
        chan = ChannelModel(transmittance=0.9, dark_count_prob=1e-4)
        rounds = generate_rounds(params, chan, params.num_signals, philox(9))
        _, _, z_score = detection_rates_by_basis(rounds)
        assert abs(z_score) < 3.0

    def test_discarding_double_clicks_breaks_basis_independence(self):
        # Negative control for the mandatory random-assignment rule.
        params = sim_params(**self.ASYM)
        chan = ChannelModel(transmittance=0.9, dark_count_prob=1e-4, double_click_policy="discard")
        rounds = generate_rounds(params, chan, params.num_signals, philox(9))
        _, _, z_score = detection_rates_by_basis(rounds)
        assert abs(z_score) > 5.0


class TestBayesEquivalence:
    def test_single_intensity_limit(self):
        # Two nearly identical intensities: posterior approaches the priors.
        params = sim_params(mu=(0.5, 0.49999), p_mu=(0.5, 0.5), n=100_000)
        chan = ChannelModel(transmittance=0.5)
        report = bayes_equivalence_test(params, chan, 100_000, philox(10), max_m=2)
        for check in report.checks:
            if not check.skipped:
                for k, p in check.expected.items():
                    assert p == pytest.approx(0.5, abs=1e-4)

    def test_posterior_matches_on_moderate_sample(self):
        params = sim_params(mu=(0.5, 0.1), p_mu=(0.7, 0.3), n=2_000_000)
        chan = ChannelModel(transmittance=0.5, dark_count_prob=1e-5)
        report = bayes_equivalence_test(
            params, chan, 2_000_000, philox(11), max_m=3, min_samples=100
        )
        tested = [c for c in report.checks if not c.skipped]
        assert tested, "need at least one testable photon number"
        assert not report.gross_failure
        # m = 1 has plenty of samples; its posterior must be tight
        m1 = next(c for c in report.checks if c.m == 1)
        assert not m1.skipped and m1.max_sigma <= 3.0

    def test_insufficient_samples_skips(self):
        params = sim_params(n=2000)
        chan = ChannelModel(transmittance=0.0, dark_count_prob=0.0)
        report = bayes_equivalence_test(params, chan, 2000, philox(12), max_m=2)
        assert all(c.skipped for c in report.checks)


class TestOracleBoundSanity:
    def test_bounds_bracket_truth_on_healthy_channel(self):
        # Every run at a comfortable operating point: lower bounds below the
        # tagged truth, upper bounds above it.
        params = sim_params(mu=(0.5, 0.1), p_mu=(0.5, 0.5), p_z=0.7, n=1_000_000,
                            n_z=100_000, n_x=15_000)
        chan = ChannelModel(transmittance=1.0, dark_count_prob=1e-5, misalignment=0.02)
        ledger = EpsilonLedger.uniform(1e-10, 2)
        from decoybb84.decoy import bounds_1decoy

        for seed in range(5):
            _, truth, observed = simulate_rounds(params, chan, params.num_signals, philox(600 + seed))
            bounds = bounds_1decoy(observed.z, observed.x, params.intensities, ledger)
            assert bounds.s0_lower <= truth.s_z[0] <= bounds.s0_upper
            assert bounds.s1_lower <= truth.s_z[1]
            assert bounds.x_s1_lower <= truth.s_x[1]
            assert bounds.v1_upper >= truth.v_x[1]
            if bounds.lambda_upper is not None and truth.lambda_x is not None:
                assert bounds.lambda_upper >= truth.lambda_x

    def test_lossless_noiseless_truth_has_no_vacuum_detections(self):
        # Without dark counts a vacuum emission can never click, so the
        # vacuum lower bound clips to the exact truth of zero.
        params = sim_params(mu=(0.5, 0.1), p_mu=(0.5, 0.5), p_z=0.7, n=200_000,
                            n_z=20_000, n_x=3_000)
        chan = ChannelModel(transmittance=1.0)
        ledger = EpsilonLedger.uniform(1e-10, 2)
        from decoybb84.decoy import bounds_1decoy

        _, truth, observed = simulate_rounds(params, chan, params.num_signals, philox(77))
        assert truth.s_z[0] == 0 and truth.v_x.sum() == 0
        bounds = bounds_1decoy(observed.z, observed.x, params.intensities, ledger)
        assert bounds.s0_lower == 0.0
        assert bounds.v1_upper >= 0.0


class TestValidateBounds:
    def test_coverage_smoke_all_within_budget(self):
        params = sim_params(mu=(0.8, 0.25), p_mu=(0.5, 0.5), p_z=0.6, n=30_000,
                            n_z=2000, n_x=1200)
        chan = ChannelModel(transmittance=0.9, dark_count_prob=1e-5, misalignment=0.01)
        ledger = EpsilonLedger.uniform(1e-2, 2)
        report = validate_bounds(params, chan, 300, ledger, philox(13))
        assert report.trials == 300
        assert report.aborted_trials == 0
        for entry in report.entries.values():
            assert entry.rate <= entry.tolerance(1e-2)
        assert report.joint.rate <= report.joint.budget + 3 * math.sqrt(
            report.joint.budget / report.trials
        )
        table = report.to_table()
        assert "joint" in table and "s0_lower" in table

    def test_stress_ledger_shows_observable_violations_within_budget(self):
        # eps = 0.5 shrinks every deviation radius to ~0.6 sigma of the
        # underlying counts: violations must actually occur and still stay
        # within the (now huge) budgets.
        params = sim_params(mu=(0.8, 0.25), p_mu=(0.5, 0.5), p_z=0.6, n=30_000,
                            n_z=2000, n_x=1200)
        chan = ChannelModel(transmittance=0.9, dark_count_prob=1e-5, misalignment=0.01)
        ledger = EpsilonLedger.uniform(0.5, 2)
        report = validate_bounds(params, chan, 400, ledger, philox(14))
        interval_total = sum(e.violations for e in report.interval_entries.values())
        assert interval_total > 0
        for entry in report.interval_entries.values():
            assert entry.rate <= entry.tolerance(0.5)
        for entry in report.entries.values():
            assert entry.rate <= entry.tolerance(entry.budget if entry.budget else 0.5)

    def test_dead_channel_aborts_every_trial(self):
        params = sim_params()
        chan = ChannelModel(transmittance=0.0, dark_count_prob=0.0)
        cells = cell_probabilities(params, chan)
        assert not cells.any()
        assert sample_block_tallies(params, cells, philox(18)) is None
        report = validate_bounds(params, chan, 20, EpsilonLedger.uniform(1e-2, 2), philox(18))
        assert report.trials == 0 and report.aborted_trials == 20
        assert "lambda_upper defined in 0 of 0 trials" in report.to_table()

    @pytest.mark.parametrize("num_signals", [10**9, 10**12, 10**14])
    def test_huge_round_counts(self, num_signals):
        # A count-level trial costs the same at any N; generating the rounds
        # of one such trial would not fit in memory.
        chan = ChannelModel(transmittance=0.05, dark_count_prob=1e-6, misalignment=0.01)
        params = operating_point(chan, num_signals=num_signals).params
        report = validate_bounds(params, chan, 20, params.ledger(), philox(19))
        assert report.trials == 20 and report.lambda_undefined == 0
        assert report.joint.violations == 0

    def test_workers_do_not_change_results(self):
        params = sim_params(n=10_000, n_z=300, n_x=200)
        chan = ChannelModel(transmittance=0.8, dark_count_prob=1e-4, misalignment=0.01)
        ledger = EpsilonLedger.uniform(1e-2, 2)
        sequential = validate_bounds(params, chan, 40, ledger, philox(15), workers=1)
        parallel = validate_bounds(params, chan, 40, ledger, philox(15), workers=2)
        assert sequential.trials == parallel.trials
        for name, entry in sequential.entries.items():
            assert parallel.entries[name].violations == entry.violations
        for name, entry in sequential.interval_entries.items():
            assert parallel.interval_entries[name].violations == entry.violations


class TestCoverageReportTable:
    @pytest.mark.parametrize("undefined, warned", [(1, False), (2, True)])
    def test_lambda_defined_count_and_warning(self, undefined, warned):
        report = CoverageReport(mode="1decoy", trials=10, aborted_trials=0,
                                lambda_undefined=undefined)
        table = report.to_table()
        assert f"lambda_upper defined in {10 - undefined} of 10 trials" in table
        assert ("WARNING" in table) == warned


def _tally_vector(truth, observed):
    """One trial's statistics: sifted sizes, per-intensity detections and
    errors in both blocks, and s/v at m = 0, 1, 2 in both blocks."""
    return np.concatenate([
        [observed.sifted_z, observed.sifted_x],
        observed.z.detections, observed.z.errors, observed.x.detections, observed.x.errors,
        truth.s_z[:3], truth.v_z[:3], truth.s_x[:3], truth.v_x[:3],
    ]).astype(float)


class TestCountSampler:
    """The count-level sampler against the per-round reference."""

    CHANNEL = ChannelModel(transmittance=0.5, dark_count_prob=5e-3, misalignment=0.03)

    @staticmethod
    def params(mode):
        if mode == "1decoy":
            return sim_params(mu=(0.6, 0.2), p_mu=(0.6, 0.4), n=20_000, n_z=400, n_x=300)
        return sim_params(mu=(0.6, 0.2, 0.05), p_mu=(0.5, 0.3, 0.2), n=20_000, n_z=400, n_x=300)

    @pytest.mark.parametrize("policy", ["random", "discard"])
    @pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
    def test_same_law_as_simulate_rounds(self, mode, policy):
        params = self.params(mode)
        channel = replace(self.CHANNEL, double_click_policy=policy)
        n = params.num_signals
        rng = philox(700)
        reference = []
        for _ in range(300):
            _, truth, observed = simulate_rounds(params, channel, n, rng)
            reference.append(_tally_vector(truth, observed))
        cells = cell_probabilities(params, channel)
        counted = [_tally_vector(*sample_block_tallies(params, cells, rng)) for _ in range(3000)]
        a, b = np.array(reference), np.array(counted)
        mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
        sd_a, sd_b = a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)
        for i in range(a.shape[1]):
            if sd_a[i] == 0.0 and sd_b[i] == 0.0:
                assert mean_a[i] == mean_b[i]
                continue
            z = (mean_a[i] - mean_b[i]) / math.sqrt(sd_a[i] ** 2 / len(a) + sd_b[i] ** 2 / len(b))
            assert abs(z) < 4.5, f"statistic {i}: z = {z:.2f}"
            assert 0.7 < sd_a[i] / sd_b[i] < 1.4, f"statistic {i}: sd ratio {sd_a[i] / sd_b[i]:.3f}"

    @pytest.mark.parametrize(
        "mu, p_mu, policy",
        [((0.8, 0.25), (0.5, 0.5), "random"), ((30.0, 0.5, 0.05), (0.4, 0.4, 0.2), "discard")],
    )
    def test_cell_probabilities_chi_square(self, mu, p_mu, policy):
        # One per-round run's sifted-cell histogram against the closed form;
        # mu = 30 puts half the Poisson mass in the top photon-number bin.
        params = sim_params(mu=mu, p_mu=p_mu, p_z=0.6)
        n = 1_000_000
        channel = replace(self.CHANNEL, double_click_policy=policy)
        cells = cell_probabilities(params, channel)
        rounds = generate_rounds(params, channel, n, philox(701))
        sifted = (rounds.alice_basis == rounds.bob_basis) & rounds.detected
        index = np.ravel_multi_index(
            (
                (~rounds.alice_basis[sifted]).astype(int),
                rounds.intensity_idx[sifted],
                np.minimum(rounds.photon_number[sifted], MAX_PHOTON_NUMBER),
                (rounds.alice_bits[sifted] != rounds.bob_bits[sifted]).astype(int),
            ),
            cells.shape,
        )
        observed = np.append(np.bincount(index, minlength=cells.size), n - sifted.sum())
        expected = n * np.append(cells.ravel(), 1.0 - cells.sum())
        # Pool the cells expected to hold fewer than 5 rounds into one.
        small = expected < 5.0
        assert small.any()
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        df = len(expected) - 1
        # Wilson-Hilferty 4-sigma critical value of the chi-square law.
        critical = df * (1.0 - 2.0 / (9 * df) + 4.0 * math.sqrt(2.0 / (9 * df))) ** 3
        assert chi2 < critical, f"chi2 = {chi2:.1f} on {df} df (critical {critical:.1f})"

    def test_cells_match_channel_algebra(self):
        # Every bin, the top one included, against the per-photon-number
        # closed forms summed term by term (mu = 40 has most of its Poisson
        # mass above the top bin's threshold).
        params = sim_params(mu=(40.0, 0.5), p_mu=(0.3, 0.7), p_z=0.6)
        cells = cell_probabilities(params, self.CHANNEL)
        top = MAX_PHOTON_NUMBER
        for basis, p_basis in ((0, 0.36), (1, 0.16)):
            for k_idx, (p_k, mu) in enumerate(zip(params.intensities.probabilities,
                                                    params.intensities.values)):
                def term(m, fn):
                    no_signal = (1.0 - self.CHANNEL.survival) ** m
                    return p_basis * p_k * poisson_pmf(mu, m) * fn(self.CHANNEL, no_signal)

                det = [term(m, detection_closed_form) for m in range(400)]
                err = [term(m, error_closed_form) for m in range(400)]
                want_err = err[:top] + [math.fsum(err[top:])]
                want_det = det[:top] + [math.fsum(det[top:])]
                got = cells[basis, k_idx]
                assert got[:, 1] == pytest.approx(want_err, rel=1e-12, abs=1e-300)
                assert got.sum(axis=1) == pytest.approx(want_det, rel=1e-12, abs=1e-300)


def random_law_case(rng, mode, policy):
    """A random channel and operating point: survival down to 1e-5, dark
    counts and misalignment off or on, and a strongest intensity up to ~60
    so that the top photon-number bin carries mass."""
    chan = ChannelModel(
        transmittance=10.0 ** rng.uniform(-5.0, 0.0),
        dark_count_prob=0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-8.0, -2.0),
        misalignment=0.0 if rng.random() < 0.25 else rng.uniform(0.0, 0.1),
        double_click_policy=policy,
    )
    if mode == "1decoy":
        mu2 = 10.0 ** rng.uniform(-2.0, 1.0)
        mus = (mu2 + 10.0 ** rng.uniform(-2.0, 1.7), mu2)
    else:
        mu2 = 10.0 ** rng.uniform(-1.5, 1.0)
        mu3 = 0.0 if rng.random() < 0.25 else rng.uniform(0.01, 0.9 * mu2)
        mus = (mu2 + mu3 + 10.0 ** rng.uniform(-2.0, 1.6), mu2, mu3)
    w = rng.uniform(0.05, 1.0, size=len(mus))
    probs = tuple(float(v) for v in w / w.sum())
    probs = probs[:-1] + (1.0 - sum(probs[:-1]),)
    params = sim_params(mu=mus, p_mu=probs, p_z=rng.uniform(0.05, 0.95),
                        p_z_alice=rng.uniform(0.05, 0.95))
    return chan, params


class TestOneDetectorLaw:
    """The optimizer's expected statistics and the coverage cells evaluate the
    channel's one detector law: N times the cells summed over photon number
    are the expected statistics."""

    @pytest.mark.parametrize("policy", ["random", "discard"])
    @pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
    def test_expected_stats_equal_summed_cells(self, mode, policy):
        # Both sides take 1 - e^{-x} with x = mu eta >= 1e-7 here, whose
        # cancellation alone costs up to ~1e-9 relative; the sides differ by
        # at most 3.3e-10 over 12000 such cases.
        rng = np.random.default_rng([1201, len(mode), len(policy)])
        for _ in range(250):
            chan, params = random_law_case(rng, mode, policy)
            stats = expected_stats(params, chan)
            cells = params.num_signals * cell_probabilities(params, chan)
            for b, basis_stats in ((0, stats.z), (1, stats.x)):
                want_det = cells[b].sum(axis=(1, 2))
                want_err = cells[b, :, :, 1].sum(axis=1)
                assert basis_stats.detections == pytest.approx(want_det, rel=1e-8, abs=0.0)
                assert basis_stats.errors == pytest.approx(want_err, rel=1e-8, abs=0.0)


class TestDeterminism:
    def test_identical_seeds_identical_rounds(self):
        params = sim_params()
        chan = ChannelModel(transmittance=0.5, dark_count_prob=1e-4, misalignment=0.01)
        a = generate_rounds(params, chan, 5000, philox(16))
        b = generate_rounds(params, chan, 5000, philox(16))
        assert np.array_equal(a.detected, b.detected)
        assert np.array_equal(a.bob_bits, b.bob_bits)
        assert np.array_equal(a.photon_number, b.photon_number)
