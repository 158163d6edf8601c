"""Bound-engine tests: worked values by direct recomputation, clipping under
adversarial inputs, monotonicity and ledger bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoybb84 import decoy
from decoybb84.decoy import (
    BasisStats,
    EpsilonLedger,
    Intensities,
    bounds_1decoy,
    bounds_2decoy,
    count_interval,
    decoy_bounds,
    error_upper,
    phase_error_upper,
    single_lower_1decoy,
    single_lower_2decoy,
    vacuum_lower,
    vacuum_upper_1decoy,
)
from decoybb84.errors import ConfigError, EstimateUnavailable
from decoybb84.keylength import BUDGET_GEOMETRY
from decoybb84.numerics import hoeffding_delta, tau_m

from conftest import philox


def make_stats(basis, detections, errors, post_ec=True):
    return BasisStats(
        basis=basis,
        block_size=float(sum(detections)),
        detections=tuple(float(v) for v in detections),
        errors=tuple(float(v) for v in errors),
        errors_post_ec=post_ec,
    )


class TestIntensities:
    def test_orderings(self):
        with pytest.raises(ConfigError):
            Intensities(values=(0.1, 0.5), probabilities=(0.5, 0.5))
        with pytest.raises(ConfigError):
            Intensities(values=(0.5, 0.5), probabilities=(0.5, 0.5))
        # 2-decoy boundary mu1 = mu2 + mu3 is rejected
        with pytest.raises(ConfigError):
            Intensities(values=(0.25, 0.2, 0.05), probabilities=(0.5, 0.3, 0.2))
        Intensities(values=(0.26, 0.2, 0.05), probabilities=(0.5, 0.3, 0.2))
        # vacuum decoy state allowed
        Intensities(values=(0.5, 0.1, 0.0), probabilities=(0.5, 0.3, 0.2))

    def test_probability_simplex(self):
        with pytest.raises(ConfigError):
            Intensities(values=(0.5, 0.1), probabilities=(0.6, 0.3))


class TestBasisStats:
    def test_detection_sum_off_by_one_count_rejected(self):
        with pytest.raises(ConfigError, match="sum to the block size"):
            BasisStats("Z", 10_000.0, (6000.0, 4001.0), (0.0, 0.0))

    def test_huge_block_tolerates_rounding(self):
        # Scaled expected counts at block ~1e12 are off by a few ulps, far
        # above any absolute tolerance; the check is relative to the block.
        detections = (1e12, 2e12 + 2.0**-8)
        assert abs(math.fsum(detections) - 3e12) > 1e-3
        stats = BasisStats("X", 3e12, detections, (0.0, 0.0))
        assert stats.block_size == 3e12


class TestCountInterval:
    def test_zero_count_clips(self):
        lower, upper = count_interval(0, 10**4, 1e-10, 1e-10)
        assert lower == 0.0
        assert upper == hoeffding_delta(10**4, 1e-10)

    def test_worked_value(self):
        # delta(1e4, 1e-10) = sqrt(5000 ln 1e10) = 339.307021220756
        lower, upper = count_interval(5000, 10**4, 1e-10, 1e-10)
        assert lower == pytest.approx(5000 - 339.307021220756, rel=1e-12)
        assert upper == pytest.approx(5000 + 339.307021220756, rel=1e-12)

    def test_certain_limit_collapses(self):
        assert count_interval(42, 100, 1.0, 1.0) == (42.0, 42.0)

    def test_count_above_block_rejected(self):
        with pytest.raises(ConfigError):
            count_interval(11, 10, 0.5, 0.5)


class TestEpsilonLedger:
    def test_uniform(self):
        ledger = EpsilonLedger.uniform(1e-2, 2)
        assert ledger.n_plus["Z"] == (1e-2, 1e-2)
        assert ledger.v_plus["X"] == 1e-2

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            EpsilonLedger.uniform(0.0, 2)
        with pytest.raises(ConfigError):
            EpsilonLedger.uniform(1.0, 2)


INTENSITIES = {
    "1decoy": Intensities(values=(0.5, 0.1), probabilities=(0.7, 0.3)),
    "2decoy": Intensities(values=(0.6, 0.2, 0.05), probabilities=(0.6, 0.25, 0.15)),
}


def inline_vacuum_lower(intens, ledger, basis, na, nb, block):
    """Independent recomputation of the vacuum lower bound from the counts
    ``na``, ``nb`` of the two weakest intensities mu_a > mu_b."""
    a, b = len(intens.values) - 2, len(intens.values) - 1
    mu_a, mu_b = intens.values[a], intens.values[b]
    p_a, p_b = intens.probabilities[a], intens.probabilities[b]
    tau0 = tau_m(intens.pairs(), 0)
    nbm = max(nb - hoeffding_delta(block, ledger.n_minus[basis][b]), 0.0)
    nap = na + hoeffding_delta(block, ledger.n_plus[basis][a])
    return tau0 / (mu_a - mu_b) * (
        mu_a * math.exp(mu_b) * nbm / p_b - mu_b * math.exp(mu_a) * nap / p_a
    )


def inline_error_upper(intens, ledger, basis, ca, cb, total_errors, block):
    """Independent recomputation of the single-photon error upper bound from
    the error counts ``ca``, ``cb`` of the two weakest intensities, clipped."""
    a, b = len(intens.values) - 2, len(intens.values) - 1
    mu_a, mu_b = intens.values[a], intens.values[b]
    p_a, p_b = intens.probabilities[a], intens.probabilities[b]
    tau1 = tau_m(intens.pairs(), 1)
    d = lambda eps: hoeffding_delta(total_errors, eps) if total_errors > 0 else 0.0
    cap = ca + d(ledger.c_plus[basis][a])
    cbm = max(cb - d(ledger.c_minus[basis][b]), 0.0)
    raw = tau1 / (mu_a - mu_b) * (math.exp(mu_a) * cap / p_a - math.exp(mu_b) * cbm / p_b)
    return min(max(raw, 0.0), block)


@pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
class TestSharedKernels:
    """``vacuum_lower`` and ``error_upper`` are one formula for both modes,
    taken on the two weakest intensities."""

    def test_vacuum_lower_matches_inline(self, mode):
        intens = INTENSITIES[mode]
        n = len(intens.values)
        for ledger in (EpsilonLedger.uniform(1e-6, n), nonuniform_ledger(philox(11), n)):
            rng = philox(1)
            for _ in range(20):
                detections = [int(rng.integers(0, 5000)) for _ in range(n)]
                stats = make_stats("Z", detections, (0,) * n)
                block = sum(detections)
                raw = inline_vacuum_lower(intens, ledger, "Z", *detections[-2:], block)
                expected = min(max(raw, 0.0), block)
                assert vacuum_lower(stats, intens, ledger) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )

    def test_error_upper_matches_inline(self, mode):
        intens = INTENSITIES[mode]
        n = len(intens.values)
        ledger = nonuniform_ledger(philox(12), n)
        rng = philox(2)
        for _ in range(20):
            detections = [int(v) for v in rng.integers(1, 5000, n)]
            errors = [int(rng.integers(0, d // 10 + 1)) for d in detections]
            stats = make_stats("X", detections, errors)
            block = sum(detections)
            expected = inline_error_upper(
                intens, ledger, "X", *errors[-2:], sum(errors), block
            )
            assert error_upper(stats, intens, ledger) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )


class TestVacuumLower1Decoy:
    def test_all_zero_detections(self, intens2):
        stats = make_stats("Z", (0, 0), (0, 0))
        ledger = EpsilonLedger.uniform(1e-10, 2)
        assert vacuum_lower(stats, intens2, ledger) == 0.0

    def test_affine_in_counts(self, intens2):
        # The pre-clip bound is affine in (n1, n2) at fixed block size: the
        # linear part doubles when both counts double.
        ledger = EpsilonLedger.uniform(1e-6, 2)
        block = 6000
        f = lambda n1, n2: inline_vacuum_lower(intens2, ledger, "Z", n1, n2, block)
        linear = f(2 * 1000, 2 * 800) - f(1000, 800)
        mu1, mu2 = intens2.values
        p1, p2 = intens2.probabilities
        tau0 = tau_m(intens2.pairs(), 0)
        expected_linear = tau0 / (mu1 - mu2) * (
            mu1 * math.exp(mu2) * 800 / p2 - mu2 * math.exp(mu1) * 1000 / p1
        )
        assert linear == pytest.approx(expected_linear, rel=1e-12)


class TestVacuumUpper1Decoy:
    def test_zero_errors_reduces_to_width_term(self, intens2):
        stats = make_stats("Z", (700, 300), (0, 0))
        ledger = EpsilonLedger.uniform(0.5, 2)
        value, _ = vacuum_upper_1decoy(stats, intens2, ledger)
        assert value == pytest.approx(2 * hoeffding_delta(1000, 0.5), rel=1e-12)

    def test_auto_takes_minimum(self, intens2):
        tau0 = tau_m(intens2.pairs(), 0)
        for errors in ((30, 2), (1, 12)):  # k_min index 1, then 0
            stats = make_stats("Z", (700, 300), errors)
            ledger = nonuniform_ledger(philox(sum(errors)), 2)
            delta_v = hoeffding_delta(1000, ledger.v_plus["Z"])
            per_intensity = [
                min(2 * ((c + hoeffding_delta(sum(errors), ledger.c_plus["Z"][k]))
                         * tau0 * math.exp(mu) / p + delta_v), 1000.0)
                for k, (c, mu, p) in enumerate(
                    zip(errors, intens2.values, intens2.probabilities)
                )
            ]
            value, idx = vacuum_upper_1decoy(stats, intens2, ledger)
            assert value == pytest.approx(min(per_intensity), rel=1e-12)
            assert idx == per_intensity.index(min(per_intensity))
            assert idx == (1 if errors[0] > errors[1] else 0)

    def test_key_basis_requires_post_ec_errors(self, intens2):
        stats = make_stats("Z", (700, 300), (9, 4), post_ec=False)
        ledger = EpsilonLedger.uniform(1e-3, 2)
        with pytest.raises(ConfigError):
            vacuum_upper_1decoy(stats, intens2, ledger)
        # monitoring basis needs no conditioning
        x_stats = make_stats("X", (700, 300), (9, 4), post_ec=False)
        vacuum_upper_1decoy(x_stats, intens2, ledger)


class TestSingleLower1Decoy:
    def test_all_zero(self, intens2):
        stats = make_stats("Z", (0, 0), (0, 0))
        ledger = EpsilonLedger.uniform(1e-10, 2)
        assert single_lower_1decoy(stats, intens2, ledger, 0.0) == 0.0

    def test_monotone_nonincreasing_in_vacuum_upper(self, intens2):
        stats = make_stats("Z", (7000, 3000), (40, 20))
        ledger = EpsilonLedger.uniform(1e-6, 2)
        values = [
            single_lower_1decoy(stats, intens2, ledger, s0u)
            for s0u in np.linspace(0, 2000, 15)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestErrorUpper1Decoy:
    def test_zero_errors(self, intens2):
        stats = make_stats("X", (700, 300), (0, 0))
        ledger = EpsilonLedger.uniform(0.5, 2)
        assert error_upper(stats, intens2, ledger) == 0.0

    def test_shrinking_eps_widens(self, intens2):
        stats = make_stats("X", (7000, 3000), (60, 25))
        values = [
            error_upper(stats, intens2, EpsilonLedger.uniform(eps, 2))
            for eps in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPhaseErrorUpper:
    def test_values(self):
        assert phase_error_upper(0.0, 100.0) == 0.0
        assert phase_error_upper(12.5, 500.0) == pytest.approx(0.025, rel=1e-12)
        assert phase_error_upper(900.0, 500.0) == 1.0  # clipped

    def test_no_estimate_aborts(self):
        with pytest.raises(EstimateUnavailable):
            phase_error_upper(5.0, 0.0)


def nonuniform_ledger(rng, n):
    def draw():
        return {b: tuple(rng.uniform(1e-4, 1e-1, n)) for b in ("Z", "X")}

    return EpsilonLedger(
        n_minus=draw(),
        n_plus=draw(),
        c_minus=draw(),
        c_plus=draw(),
        v_plus={b: float(rng.uniform(1e-4, 1e-1)) for b in ("Z", "X")},
    )


class TestBounds1Decoy:
    def test_delta_ci_is_ten_term_sum(self, intens2):
        ledger = nonuniform_ledger(philox(7), 2)
        stats_z = make_stats("Z", (7000, 3000), (40, 20))
        stats_x = make_stats("X", (1400, 600), (9, 4))
        bounds = bounds_1decoy(stats_z, stats_x, intens2, ledger)
        kz = intens2.values.index(bounds.k_min_z)
        kx = intens2.values.index(bounds.k_min_x)
        manual = sum(
            [
                ledger.n_minus["Z"][1], ledger.n_plus["Z"][0],
                ledger.c_plus["Z"][kz], ledger.v_plus["Z"],
                ledger.c_plus["X"][kx], ledger.v_plus["X"],
                ledger.n_minus["X"][1], ledger.n_plus["X"][0],
                ledger.c_plus["X"][0], ledger.c_minus["X"][1],
            ]
        )
        assert bounds.delta_ci == pytest.approx(manual, rel=1e-12)
        uniform = bounds_1decoy(stats_z, stats_x, intens2, EpsilonLedger.uniform(1e-2, 2))
        assert uniform.delta_ci == BUDGET_GEOMETRY["1decoy"][1] * 1e-2

    def test_empty_monitoring_block_aborts(self, intens2):
        ledger = EpsilonLedger.uniform(1e-3, 2)
        stats_z = make_stats("Z", (7000, 3000), (40, 20))
        stats_x = make_stats("X", (0, 0), (0, 0))
        bounds = bounds_1decoy(stats_z, stats_x, intens2, ledger)
        assert bounds.abort_reason is not None
        assert bounds.lambda_upper is None

    def test_basis_swap_symmetry(self, intens2):
        rng = philox(21)
        ledger = nonuniform_ledger(rng, 2)
        stats_z = make_stats("Z", (7000, 3000), (40, 20))
        stats_x = make_stats("X", (1400, 600), (9, 4))
        bounds = bounds_1decoy(stats_z, stats_x, intens2, ledger)

        swapped_ledger = EpsilonLedger(
            n_minus={"Z": ledger.n_minus["X"], "X": ledger.n_minus["Z"]},
            n_plus={"Z": ledger.n_plus["X"], "X": ledger.n_plus["Z"]},
            c_minus={"Z": ledger.c_minus["X"], "X": ledger.c_minus["Z"]},
            c_plus={"Z": ledger.c_plus["X"], "X": ledger.c_plus["Z"]},
            v_plus={"Z": ledger.v_plus["X"], "X": ledger.v_plus["Z"]},
        )
        swapped_z = make_stats("Z", (1400, 600), (9, 4))
        swapped_x = make_stats("X", (7000, 3000), (40, 20))
        swapped = bounds_1decoy(swapped_z, swapped_x, intens2, swapped_ledger)
        assert swapped.s0_upper == pytest.approx(bounds.x_s0_upper, rel=1e-12)
        assert swapped.s1_lower == pytest.approx(bounds.x_s1_lower, rel=1e-12)
        assert swapped.x_s1_lower == pytest.approx(bounds.s1_lower, rel=1e-12)

    def test_clipping_under_adversarial_inputs(self, intens2):
        rng = philox(5)
        for _ in range(200):
            block_z = int(rng.integers(0, 5000))
            block_x = int(rng.integers(0, 2000))
            nz1 = int(rng.integers(0, block_z + 1))
            nx1 = int(rng.integers(0, block_x + 1))
            cz = (int(rng.integers(0, nz1 + 1)), int(rng.integers(0, block_z - nz1 + 1)))
            cx = (int(rng.integers(0, nx1 + 1)), int(rng.integers(0, block_x - nx1 + 1)))
            stats_z = make_stats("Z", (nz1, block_z - nz1), cz)
            stats_x = make_stats("X", (nx1, block_x - nx1), cx)
            eps = float(rng.uniform(1e-12, 0.99))
            bounds = bounds_1decoy(stats_z, stats_x, intens2, EpsilonLedger.uniform(eps, 2))
            if bounds.abort_reason == "abort: empty block":
                continue
            assert 0.0 <= bounds.s0_lower <= block_z
            assert 0.0 <= bounds.s0_upper <= block_z
            assert 0.0 <= bounds.s1_lower <= block_z
            assert 0.0 <= bounds.x_s1_lower <= block_x
            assert 0.0 <= bounds.v1_upper <= block_x
            if bounds.lambda_upper is not None:
                assert 0.0 <= bounds.lambda_upper <= 1.0

    def test_growing_eps_never_widens(self, intens2):
        stats_z = make_stats("Z", (7000, 3000), (40, 20))
        stats_x = make_stats("X", (1400, 600), (9, 4))
        prev = None
        for eps in (1e-10, 1e-6, 1e-3, 1e-1):
            b = bounds_1decoy(stats_z, stats_x, intens2, EpsilonLedger.uniform(eps, 2))
            if prev is not None:
                assert b.s0_lower >= prev.s0_lower - 1e-9
                assert b.s0_upper <= prev.s0_upper + 1e-9
                assert b.s1_lower >= prev.s1_lower - 1e-9
                assert b.v1_upper <= prev.v1_upper + 1e-9
            prev = b


class TestBounds2Decoy:
    def inline_bounds(self, intens, ledger, stats_z):
        mu1, mu2, mu3 = intens.values
        p1, p2, p3 = intens.probabilities
        tau0 = tau_m(intens.pairs(), 0)
        tau1 = tau_m(intens.pairs(), 1)
        n = stats_z.detections
        block = stats_z.block_size
        d = lambda eps: hoeffding_delta(block, eps)
        n1p = n[0] + d(ledger.n_plus["Z"][0])
        n2m = max(n[1] - d(ledger.n_minus["Z"][1]), 0.0)
        n2p = n[1] + d(ledger.n_plus["Z"][1])
        n3m = max(n[2] - d(ledger.n_minus["Z"][2]), 0.0)
        n3p = n[2] + d(ledger.n_plus["Z"][2])
        s0 = tau0 / (mu2 - mu3) * (mu2 * math.exp(mu3) * n3m / p3 - mu3 * math.exp(mu2) * n2p / p2)
        s0 = min(max(s0, 0.0), block)
        s1 = mu1 * tau1 / (mu1 * (mu2 - mu3) - mu2**2 + mu3**2) * (
            math.exp(mu2) * n2m / p2
            - math.exp(mu3) * n3p / p3
            + (mu2**2 - mu3**2) / mu1**2 * (s0 / tau0 - math.exp(mu1) * n1p / p1)
        )
        return s0, min(max(s1, 0.0), block)

    def test_matches_inline_recomputation(self, intens3):
        ledger = EpsilonLedger.uniform(1e-6, 3)
        stats = make_stats("Z", (6000, 2500, 1500), (30, 12, 8))
        s0, s1 = self.inline_bounds(intens3, ledger, stats)
        assert vacuum_lower(stats, intens3, ledger) == pytest.approx(s0, rel=1e-12)
        assert single_lower_2decoy(stats, intens3, ledger, s0) == pytest.approx(s1, rel=1e-12)

    def test_single_lower_nondecreasing_in_vacuum_lower(self, intens3):
        ledger = EpsilonLedger.uniform(1e-6, 3)
        stats = make_stats("Z", (6000, 2500, 1500), (30, 12, 8))
        values = [
            single_lower_2decoy(stats, intens3, ledger, s0)
            for s0 in np.linspace(0, 1500, 12)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_delta_ci_term_count(self, intens3):
        ledger = nonuniform_ledger(philox(9), 3)
        stats_z = make_stats("Z", (6000, 2500, 1500), (30, 12, 8))
        stats_x = make_stats("X", (1200, 500, 300), (7, 3, 2))
        manual = sum(
            [
                ledger.n_minus["Z"][1], ledger.n_plus["Z"][2], ledger.n_plus["Z"][0],
                ledger.n_minus["Z"][2], ledger.n_plus["Z"][1],
                ledger.n_minus["X"][1], ledger.n_plus["X"][2], ledger.n_plus["X"][0],
                ledger.n_minus["X"][2], ledger.n_plus["X"][1],
                ledger.c_plus["X"][1], ledger.c_minus["X"][2],
            ]
        )
        bounds = bounds_2decoy(stats_z, stats_x, intens3, ledger)
        assert bounds.delta_ci == pytest.approx(manual, rel=1e-15)
        uniform = bounds_2decoy(stats_z, stats_x, intens3, EpsilonLedger.uniform(1e-2, 3))
        assert uniform.delta_ci == BUDGET_GEOMETRY["2decoy"][1] * 1e-2

    def test_full_bounds_and_clipping(self, intens3):
        ledger = EpsilonLedger.uniform(1e-4, 3)
        stats_z = make_stats("Z", (6000, 2500, 1500), (30, 12, 8))
        stats_x = make_stats("X", (1200, 500, 300), (7, 3, 2))
        bounds = bounds_2decoy(stats_z, stats_x, intens3, ledger)
        assert bounds.mode == "2decoy"
        assert bounds.s0_upper is None and bounds.k_min_z is None
        assert 0.0 <= bounds.s0_lower <= stats_z.block_size
        assert 0.0 <= bounds.x_s1_lower <= stats_x.block_size
        assert bounds.delta_ci == pytest.approx(12e-4, rel=1e-12)

    def test_vacuum_decoy_state(self):
        # mu3 = 0 is a legal vacuum decoy; noise-free stats give valid bounds.
        intens = Intensities(values=(0.5, 0.1, 0.0), probabilities=(0.6, 0.25, 0.15))
        ledger = EpsilonLedger.uniform(1e-4, 3)
        stats = make_stats("Z", (6000, 500, 30), (30, 3, 15))
        value = vacuum_lower(stats, intens, ledger)
        assert 0.0 <= value <= stats.block_size


class TestDecoyBounds:
    """``decoy_bounds`` is the single entry point: it must return exactly the
    bound set of the mode's own function."""

    CASES = {
        "1decoy": (
            bounds_1decoy,
            INTENSITIES["1decoy"],
            {
                "regular": ((7000, 3000), (40, 20), (1400, 600), (9, 4)),
                "empty_block": ((7000, 3000), (40, 20), (0, 0), (0, 0)),
                "no_estimate": ((7000, 3000), (40, 20), (3, 2), (1, 1)),
            },
        ),
        "2decoy": (
            bounds_2decoy,
            INTENSITIES["2decoy"],
            {
                "regular": (
                    (600_000, 250_000, 150_000), (3000, 1200, 800),
                    (120_000, 50_000, 30_000), (700, 300, 200),
                ),
                "empty_block": ((6000, 2500, 1500), (30, 12, 8), (0, 0, 0), (0, 0, 0)),
                "no_estimate": ((6000, 2500, 1500), (30, 12, 8), (3, 2, 1), (1, 1, 0)),
            },
        ),
    }

    BOUND_FIELDS = (
        "s0_lower", "s0_upper", "s1_lower", "x_s0_upper", "x_s1_lower", "v1_upper",
        "lambda_upper",
    )

    @pytest.mark.parametrize("case", ["regular", "empty_block", "no_estimate"])
    @pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
    def test_equals_mode_function(self, mode, case):
        own, intens, cases = self.CASES[mode]
        det_z, err_z, det_x, err_x = cases[case]
        stats_z = make_stats("Z", det_z, err_z)
        stats_x = make_stats("X", det_x, err_x)
        ledger = nonuniform_ledger(philox(3), len(intens.values))
        got = decoy_bounds(stats_z, stats_x, intens, ledger)
        want = own(stats_z, stats_x, intens, ledger)
        assert got.mode == mode
        assert got == want  # dataclass equality: field for field
        if case == "regular":
            assert got.lambda_upper is not None and got.abort_reason is None
        else:
            assert got.lambda_upper is None
            expected = "empty block" if case == "empty_block" else "no single-photon estimate"
            assert expected in got.abort_reason

    @pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
    def test_budgets_cover_reported_bounds(self, mode):
        # One budget per reported bound, and none for a bound never reported.
        _, intens, cases = self.CASES[mode]
        det_z, err_z, det_x, err_x = cases["regular"]
        ledger = nonuniform_ledger(philox(3), len(intens.values))
        bounds = decoy_bounds(
            make_stats("Z", det_z, err_z), make_stats("X", det_x, err_x), intens, ledger
        )
        reported = {name for name in self.BOUND_FIELDS if getattr(bounds, name) is not None}
        assert set(bounds.budgets) == reported

    @pytest.mark.parametrize("mode, calls", [("1decoy", 1), ("2decoy", 2)])
    def test_vacuum_lower_only_where_read(self, mode, calls, monkeypatch):
        # 1-decoy reads the vacuum lower bound in the key basis only; 2-decoy
        # feeds it to the single-photon bound of both bases.
        _, intens, cases = self.CASES[mode]
        det_z, err_z, det_x, err_x = cases["regular"]
        seen = []

        def counted(*args):
            seen.append(args)
            return vacuum_lower(*args)

        monkeypatch.setattr(decoy, "vacuum_lower", counted)
        decoy_bounds(
            make_stats("Z", det_z, err_z), make_stats("X", det_x, err_x), intens,
            nonuniform_ledger(philox(3), len(intens.values)),
        )
        assert len(seen) == calls


def counts_strategy(n_levels):
    """Per-intensity (detections, errors) of one basis; blocks may be empty."""
    level = st.integers(0, 10**6).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, d))
    )
    return st.lists(level, min_size=n_levels, max_size=n_levels)


ledgers = st.floats(1e-12, 0.5)


def ledger_strategy(n_levels):
    per_level = st.lists(ledgers, min_size=n_levels, max_size=n_levels).map(tuple)
    group = st.fixed_dictionaries({"Z": per_level, "X": per_level})
    return st.builds(
        EpsilonLedger,
        n_minus=group, n_plus=group, c_minus=group, c_plus=group,
        v_plus=st.fixed_dictionaries({"Z": ledgers, "X": ledgers}),
    )


def stats_from(basis, counts):
    return make_stats(basis, [d for d, _ in counts], [c for _, c in counts])


class TestBoundProperties:
    """Hypothesis checks of what the bound docstrings claim, through
    ``decoy_bounds`` in both modes, with random counts and non-uniform
    ledgers."""

    @pytest.mark.parametrize("mode", ["1decoy", "2decoy"])
    def test_ranges(self, mode):
        intens = INTENSITIES[mode]
        n = len(intens.values)

        @settings(max_examples=200, deadline=None)
        @given(counts_strategy(n), counts_strategy(n), ledger_strategy(n))
        def check(z_counts, x_counts, ledger):
            stats_z, stats_x = stats_from("Z", z_counts), stats_from("X", x_counts)
            bounds = decoy_bounds(stats_z, stats_x, intens, ledger)
            for name, block in (
                ("s0_lower", stats_z), ("s0_upper", stats_z), ("s1_lower", stats_z),
                ("x_s0_upper", stats_x), ("x_s1_lower", stats_x), ("v1_upper", stats_x),
            ):
                value = getattr(bounds, name)
                assert value is None or 0.0 <= value <= block.block_size, name
            if bounds.lambda_upper is None:
                assert bounds.abort_reason is not None
            else:
                assert 0.0 <= bounds.lambda_upper <= 1.0

        check()

    @settings(max_examples=200, deadline=None)
    @given(
        counts_strategy(2), ledger_strategy(2),
        st.floats(0.0, 1e6), st.floats(0.0, 1e6),
    )
    def test_single_lower_1decoy_nonincreasing_in_vacuum_upper(self, counts, ledger, s, t):
        intens = INTENSITIES["1decoy"]
        stats = stats_from("Z", counts)
        lo, hi = sorted((s, t))
        assert single_lower_1decoy(stats, intens, ledger, hi) <= single_lower_1decoy(
            stats, intens, ledger, lo
        )

    @settings(max_examples=200, deadline=None)
    @given(
        counts_strategy(3), ledger_strategy(3),
        st.floats(0.0, 1e6), st.floats(0.0, 1e6),
    )
    def test_single_lower_2decoy_nondecreasing_in_vacuum_lower(self, counts, ledger, s, t):
        intens = INTENSITIES["2decoy"]
        stats = stats_from("Z", counts)
        lo, hi = sorted((s, t))
        assert single_lower_2decoy(stats, intens, ledger, lo) <= single_lower_2decoy(
            stats, intens, ledger, hi
        )
