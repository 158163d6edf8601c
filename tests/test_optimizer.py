"""Optimizer tests: analytic expected statistics vs Monte Carlo, grid and
coordinate-descent searches, feasibility and determinism."""

import math

import numpy as np
import pytest

from decoybb84.decoy import Intensities
from decoybb84.errors import ConfigError
from decoybb84.optimizer import (
    OptimizerSettings,
    ParamRange,
    SearchSpace,
    derive_operating_point,
    evaluate,
    expected_stats,
    optimize,
)
from decoybb84.protocol import ProtocolParams, ObservedStats
from decoybb84.keylength import AcceptanceSet
from decoybb84.simulator import ChannelModel, generate_rounds

from conftest import philox


def base_params(n=10**6, p_z=0.6):
    return ProtocolParams(
        intensities=Intensities(values=(0.6, 0.2), probabilities=(0.65, 0.35)),
        p_z_alice=p_z,
        p_z_bob=p_z,
        num_signals=n,
        eps_cor=1e-12,
        eps_sec_prime=1e-9,
        acceptance=AcceptanceSet(n_z=1, n_x=1, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.5),
        leak_ec=0.0,
    )


class TestExpectedStats:
    def test_dead_channel_yields_zero_counts(self):
        stats = expected_stats(base_params(), ChannelModel(transmittance=0.0))
        assert stats.z.block_size == 0.0
        assert all(v == 0.0 for v in stats.z.detections + stats.x.detections)

    def test_linear_in_signal_count(self):
        chan = ChannelModel(transmittance=0.4, dark_count_prob=1e-5, misalignment=0.01)
        one = expected_stats(base_params(n=10**5), chan)
        two = expected_stats(base_params(n=2 * 10**5), chan)
        for a, b in zip(one.z.detections, two.z.detections):
            assert b == pytest.approx(2 * a, rel=1e-12)

    def test_matches_monte_carlo_means(self):
        params = base_params(n=10**6)
        chan = ChannelModel(transmittance=0.4, dark_count_prob=1e-5, misalignment=0.01)
        expected = expected_stats(params, chan)
        rounds = generate_rounds(params, chan, params.num_signals, philox(42))
        matched = rounds.alice_basis == rounds.bob_basis
        for basis, stats in (("Z", expected.z), ("X", expected.x)):
            in_basis = matched & (rounds.alice_basis == (basis == "Z"))
            for k_idx in range(2):
                sel = in_basis & (rounds.intensity_idx == k_idx)
                observed_det = float((rounds.detected & sel).sum())
                mean = stats.detections[k_idx]
                assert abs(observed_det - mean) < 3 * math.sqrt(mean), (basis, k_idx)
                observed_err = float(
                    (rounds.detected & sel & (rounds.alice_bits != rounds.bob_bits)).sum()
                )
                err_mean = stats.errors[k_idx]
                assert abs(observed_err - err_mean) < 4 * math.sqrt(err_mean) + 4


GOOD_CHANNEL = ChannelModel(transmittance=0.9, dark_count_prob=1e-6, misalignment=0.005)


def settings(n=200_000, mode="1decoy"):
    return OptimizerSettings(
        num_signals=n, eps_cor=1e-12, eps_sec_prime=1e-9, mode=mode,
        margin=0.15, block_margin=0.12, leak_margin=0.3,
    )


class TestDeriveOperatingPoint:
    def test_feasible_point_has_consistent_acceptance(self):
        intens = Intensities(values=(0.8, 0.25), probabilities=(0.5, 0.5))
        point = derive_operating_point(intens, 0.6, GOOD_CHANNEL, settings())
        assert point is not None
        q = point.params.acceptance
        assert q.s_z0 + q.s_z1 <= q.n_z
        assert q.s_x1 <= q.n_x
        assert 0 <= q.lambda_u <= 0.5
        assert point.key_rate == point.key_length / 200_000

    def test_dead_channel_is_infeasible(self):
        intens = Intensities(values=(0.8, 0.25), probabilities=(0.5, 0.5))
        assert derive_operating_point(intens, 0.6, ChannelModel(transmittance=0.0), settings()) is None

    def test_too_few_single_photons_is_infeasible(self):
        # At this 2-decoy point the expected x_s1_lower is below one event, so
        # the sampling correction is undefined; the point scores as no key
        # instead of failing the whole search.
        intens = Intensities(
            values=(0.8285714285714285, 0.18571428571428572, 0.01),
            probabilities=(0.5778914285714285, 0.1, 1.0 - 0.5778914285714285 - 0.1),
        )
        channel = ChannelModel(transmittance=10**-2 * 0.5, dark_count_prob=1e-6, misalignment=0.01)
        wide = OptimizerSettings(
            num_signals=10**9, eps_cor=1e-12, eps_sec_prime=1e-9, mode="2decoy",
            margin=0.2, block_margin=0.12, leak_margin=0.35,
        )
        assert derive_operating_point(intens, 0.85, channel, wide) is None
        space = SearchSpace(ranges={}, fixed={
            "mu1": intens.values[0], "mu2": intens.values[1], "mu3": intens.values[2],
            "p_mu1": intens.probabilities[0], "p_mu2": 0.1, "p_z": 0.85,
        })
        assert optimize(space, channel, wide, "grid").best_rate == 0.0

    def test_error_rate_above_half_is_infeasible(self):
        # Expected QBER 0.7: the leak is charged at h = 1 and the point scores
        # as no key instead of raising from the leak estimate.
        intens = Intensities(values=(0.8, 0.25), probabilities=(0.5, 0.5))
        channel = ChannelModel(transmittance=0.9, misalignment=0.7)
        assert derive_operating_point(intens, 0.6, channel, settings(n=10**6)) is None

    @pytest.mark.parametrize(
        "num_signals, values, probabilities",
        [
            (10**12, (0.8, 0.1), (0.7, 0.3)),
            (10**14, (0.8, 0.25), (0.5, 0.5)),
            (10**12, (0.8, 0.25, 0.02), (0.7, 0.2, 0.1)),
            (10**14, (0.8, 0.25, 0.02), (0.7, 0.2, 0.1)),
        ],
    )
    def test_asymptotic_block_sizes(self, num_signals, values, probabilities):
        # Scaled expected detections at these block sizes miss the block size
        # by rounding errors far above 1e-6 counts; the point must still derive.
        intens = Intensities(values=values, probabilities=probabilities)
        huge = OptimizerSettings(
            num_signals=num_signals, eps_cor=1e-12, eps_sec_prime=1e-9, mode=intens.mode,
            margin=0.2, block_margin=0.12, leak_margin=0.35,
        )
        channel = ChannelModel(transmittance=0.05, dark_count_prob=1e-6, misalignment=0.01)
        point = derive_operating_point(intens, 0.8, channel, huge)
        assert point is not None and point.key_length > 0


class TestSearchSpace:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace(ranges={"bogus": ParamRange(0, 1, 2)})

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace(ranges={})


class TestOptimize:
    SPACE = SearchSpace(
        ranges={"mu1": ParamRange(0.5, 0.9, 3), "p_z": ParamRange(0.5, 0.7, 3)},
        fixed={"mu2": 0.25, "p_mu1": 0.5},
    )

    def test_degenerate_single_point_space(self):
        space = SearchSpace(
            ranges={}, fixed={"mu1": 0.8, "mu2": 0.25, "p_mu1": 0.5, "p_z": 0.6}
        )
        result = optimize(space, GOOD_CHANNEL, settings(), "grid")
        assert len(result.trace) == 1
        assert result.best_values == space.fixed
        assert result.best_rate > 0

    def test_zero_transmittance_reports_no_key(self):
        result = optimize(self.SPACE, ChannelModel(transmittance=0.0), settings(), "grid")
        assert result.best_rate == 0.0
        assert result.best_point is None
        assert all(rate == 0.0 for _, rate in result.trace)

    def test_grid_best_dominates_trace(self):
        result = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        assert result.best_rate == max(rate for _, rate in result.trace)
        assert len(result.trace) == 9

    def test_every_feasible_trace_entry_respects_constraints(self):
        result = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        for values, rate in result.trace:
            if rate > 0:
                assert values["mu1"] > values["mu2"] > 0
                assert 0 < values["p_mu1"] < 1
                assert 0 < values["p_z"] < 1

    def test_grid_and_coordinate_agree_on_smooth_slice(self):
        grid = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        coord = optimize(self.SPACE, GOOD_CHANNEL, settings(), "coordinate")
        # coordinate descent explores the same lattice, so it can never beat
        # the exhaustive grid; on this smooth slice it finds the same optimum
        assert coord.best_rate <= grid.best_rate + 1e-12
        assert coord.best_rate == pytest.approx(grid.best_rate, rel=1e-9)

    def test_reproducible_traces(self):
        a = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        b = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        assert a.trace == b.trace
        assert a.best_values == b.best_values

    def test_trace_csv_shape(self):
        result = optimize(self.SPACE, GOOD_CHANNEL, settings(), "grid")
        lines = result.trace_csv().strip().splitlines()
        assert lines[0] == "mu1,mu2,p_mu1,p_z,key_rate"
        assert len(lines) == 1 + len(result.trace)
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            optimize(self.SPACE, GOOD_CHANNEL, settings(), "annealing")

    def test_two_decoy_search_runs(self):
        # three-intensity statistics need larger blocks before the weakest
        # intensity's deviation radius stops swamping its count
        space = SearchSpace(
            ranges={"mu1": ParamRange(0.7, 0.9, 2)},
            fixed={"mu2": 0.25, "mu3": 0.05, "p_mu1": 0.5, "p_mu2": 0.3, "p_z": 0.6},
        )
        result = optimize(space, GOOD_CHANNEL, settings(n=10**6, mode="2decoy"), "grid")
        assert result.best_rate > 0
        assert result.best_point.params.mode == "2decoy"


class TestEpsilonSplitTuning:
    INTENS = Intensities(values=(0.8, 0.25), probabilities=(0.5, 0.5))

    def test_tuned_split_never_loses_to_simplified(self):
        plain = derive_operating_point(self.INTENS, 0.6, GOOD_CHANNEL, settings())
        tuned_settings = OptimizerSettings(
            num_signals=200_000, eps_cor=1e-12, eps_sec_prime=1e-9, mode="1decoy",
            margin=0.15, block_margin=0.12, leak_margin=0.3, tune_epsilon_split=True,
        )
        tuned = derive_operating_point(self.INTENS, 0.6, GOOD_CHANNEL, tuned_settings)
        assert tuned.key_length >= plain.key_length

    def test_tuning_is_deterministic(self):
        tuned_settings = OptimizerSettings(
            num_signals=200_000, eps_cor=1e-12, eps_sec_prime=1e-9, mode="1decoy",
            margin=0.15, block_margin=0.12, leak_margin=0.3, tune_epsilon_split=True,
        )
        a = derive_operating_point(self.INTENS, 0.6, GOOD_CHANNEL, tuned_settings)
        b = derive_operating_point(self.INTENS, 0.6, GOOD_CHANNEL, tuned_settings)
        assert a.key_length == b.key_length
        assert (a.budget is None) == (b.budget is None)

    def test_rejected_for_three_intensities(self):
        with pytest.raises(ConfigError):
            OptimizerSettings(
                num_signals=10**6, eps_cor=1e-12, eps_sec_prime=1e-9, mode="2decoy",
                tune_epsilon_split=True,
            )


class TestEvaluate:
    def test_infeasible_intensity_ordering_scores_zero(self):
        values = {"mu1": 0.2, "mu2": 0.25, "p_mu1": 0.5, "p_z": 0.6}
        rate, point = evaluate(values, GOOD_CHANNEL, settings())
        assert rate == 0.0 and point is None

    def test_simplex_violation_scores_zero(self):
        values = {"mu1": 0.8, "mu2": 0.2, "mu3": 0.05, "p_mu1": 0.7, "p_mu2": 0.4, "p_z": 0.6}
        rate, point = evaluate(values, GOOD_CHANNEL, settings(mode="2decoy"))
        assert rate == 0.0 and point is None
