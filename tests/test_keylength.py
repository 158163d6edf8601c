"""Key-length calculator tests: budget constants, worked values (mpmath
oracle), general/simplified equality and monotonicity."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decoybb84.errors import ConfigError, EstimateUnavailable, NoAdmissibleKey
from decoybb84.keylength import (
    AcceptanceSet,
    EpsilonBudget,
    check_term_breakdown,
    correctness_hash_length,
    gamma_for_acceptance,
    key_length_for_mode,
    key_length_general_1decoy,
    leak_ec_estimate,
)

from conftest import philox

WORKED_Q = AcceptanceSet(n_z=10**4, n_x=10**4, s_z0=100, s_z1=1000, s_x1=1000, lambda_u=0.0)


class TestEpsilonBudget:
    def test_simplified_geometry(self):
        for mode, constant, terms in (("1decoy", 15, 10), ("2decoy", 17, 12)):
            budget = EpsilonBudget.simplified(1e-15, 1e-9, mode)
            eps0 = 1e-9 / constant
            assert budget.eps0 == pytest.approx(eps0, rel=1e-15)
            assert budget.nu == budget.alpha2 == budget.eps0
            assert budget.delta_ci == pytest.approx(terms * eps0, rel=1e-15)
            # remaining privacy-amplification slack is exactly eps0
            assert budget.pa_slack == pytest.approx(eps0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EpsilonBudget(eps_cor=0.0, eps_sec_prime=1e-9, nu=1e-10, alpha2=1e-10, delta_ci=1e-10)


class TestAcceptanceSet:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            AcceptanceSet(n_z=100, n_x=100, s_z0=60, s_z1=50, s_x1=10, lambda_u=0.1)
        with pytest.raises(ConfigError):
            AcceptanceSet(n_z=100, n_x=100, s_z0=10, s_z1=50, s_x1=110, lambda_u=0.1)
        with pytest.raises(ConfigError):
            AcceptanceSet(n_z=100, n_x=100, s_z0=10, s_z1=50, s_x1=10, lambda_u=0.6)


class TestLeakEstimate:
    def test_values(self):
        assert leak_ec_estimate(10**4, 0.0, 1.0) == 0.0
        assert leak_ec_estimate(10**4, 0.5, 1.0) == pytest.approx(10**4, rel=1e-12)
        # mpmath: 1e4 * 1.16 * h(0.02) = 1640.71029348512
        assert leak_ec_estimate(10**4, 0.02, 1.16) == pytest.approx(1640.71029348512, rel=1e-10)

    def test_inefficiency_below_one_rejected(self):
        with pytest.raises(ConfigError):
            leak_ec_estimate(100, 0.01, 0.99)


class TestGammaForAcceptance:
    def test_values(self):
        q1 = AcceptanceSet(n_z=10, n_x=10, s_z0=0, s_z1=1, s_x1=1, lambda_u=0.5)
        assert gamma_for_acceptance(math.exp(-1), q1) == pytest.approx(2.0, rel=1e-12)
        q2 = AcceptanceSet(n_z=10**6, n_x=10**6, s_z0=0, s_z1=10**5, s_x1=10**5, lambda_u=0.5)
        assert gamma_for_acceptance(1e-10, q2) == pytest.approx(0.0214597675609265, rel=1e-12)

    def test_shrinks_with_counts(self):
        small = AcceptanceSet(n_z=10**4, n_x=10**4, s_z0=0, s_z1=100, s_x1=100, lambda_u=0.5)
        big = AcceptanceSet(n_z=10**4, n_x=10**4, s_z0=0, s_z1=1000, s_x1=1000, lambda_u=0.5)
        assert gamma_for_acceptance(1e-8, big) < gamma_for_acceptance(1e-8, small)

    def test_zero_counts_abort(self):
        q = AcceptanceSet(n_z=10, n_x=10, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.5)
        with pytest.raises(EstimateUnavailable):
            gamma_for_acceptance(1e-8, q)


class TestWorkedExample:
    # (s_z0=100, s_z1=1000, lambda+gamma=0, leak=200, eps_cor=1e-15,
    # eps_sec'=1e-9): mpmath gives pre-floor terms
    #   correctness = 50.8289214233104, secrecy(15) = 134.216973798379,
    #   secrecy(17) = 134.939262780946,
    # so l = floor(714.954104778310) = 714 for the two-intensity form and
    # l = floor(714.231815795743) = 714 for the three-intensity form.

    def test_simplified_1decoy(self):
        report = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 200.0, "1decoy", gamma=0.0)
        assert report.length == 714
        assert report.pre_floor == pytest.approx(714.954104778310, abs=1e-9)
        assert -report.terms["correctness"] == pytest.approx(50.8289214233104, abs=1e-9)
        assert -report.terms["secrecy"] == pytest.approx(134.216973798379, abs=1e-9)
        assert check_term_breakdown(report)

    def test_simplified_2decoy(self):
        report = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 200.0, "2decoy", gamma=0.0)
        assert report.length == 714
        assert report.pre_floor == pytest.approx(714.231815795743, abs=1e-9)
        assert -report.terms["secrecy"] == pytest.approx(134.939262780946, abs=1e-9)

    def test_secrecy_term_gap_is_budget_ratio(self):
        r1 = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 200.0, "1decoy", gamma=0.0)
        r2 = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 200.0, "2decoy", gamma=0.0)
        assert r1.pre_floor - r2.pre_floor == pytest.approx(4 * math.log2(17 / 15), abs=1e-9)

    def test_general_matches_simplified_on_worked_example(self):
        budget = EpsilonBudget.simplified(1e-15, 1e-9, "1decoy")
        general = key_length_general_1decoy(WORKED_Q, budget, 200.0, gamma=0.0)
        simplified = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 200.0, "1decoy", gamma=0.0)
        assert general.pre_floor == pytest.approx(simplified.pre_floor, abs=1e-9)
        assert general.length == simplified.length == 714


class TestBudgetConstants:
    def test_secrecy_terms_symbolically(self):
        # The simplified secrecy terms must be exactly 4*log2(C / (eps' 2^1/4))
        # with C = 15 (two intensities) and C = 17 (three), and eps0 = eps'/C.
        rng = philox(3)
        for _ in range(50):
            esp = 10.0 ** rng.uniform(-12, -6)
            r1 = key_length_for_mode(WORKED_Q, 1e-12, esp, 0.0, "1decoy", gamma=0.0)
            r2 = key_length_for_mode(WORKED_Q, 1e-12, esp, 0.0, "2decoy", gamma=0.0)
            assert -r1.terms["secrecy"] == pytest.approx(
                4 * math.log2(15 / (esp * 2**0.25)), rel=1e-12
            )
            assert -r2.terms["secrecy"] == pytest.approx(
                4 * math.log2(17 / (esp * 2**0.25)), rel=1e-12
            )
            assert EpsilonBudget.simplified(1e-12, esp, "1decoy").eps0 == esp / 15
            assert EpsilonBudget.simplified(1e-12, esp, "2decoy").eps0 == esp / 17

    def test_correctness_term_symbolically(self):
        for eps_cor in (1e-15, 1e-10, 2.0**-20):
            r = key_length_for_mode(WORKED_Q, eps_cor, 1e-9, 0.0, "1decoy", gamma=0.0)
            assert -r.terms["correctness"] == pytest.approx(math.log2(2 / eps_cor), rel=1e-12)


def random_acceptance(rng):
    n_z = int(rng.integers(10**3, 10**6))
    n_x = int(rng.integers(10**3, 10**6))
    s_z1 = int(rng.integers(1, n_z // 2))
    s_z0 = float(rng.uniform(0, n_z - s_z1))
    s_x1 = int(rng.integers(1, n_x))
    lambda_u = float(rng.uniform(0, 0.5))
    return AcceptanceSet(n_z=n_z, n_x=n_x, s_z0=s_z0, s_z1=s_z1, s_x1=s_x1, lambda_u=lambda_u)


class TestGeneralSimplifiedEquality:
    def test_random_sweep(self):
        rng = philox(11)
        worst = 0.0
        for _ in range(1000):
            q = random_acceptance(rng)
            eps_cor = 10.0 ** rng.uniform(-16, -4)
            esp = 10.0 ** rng.uniform(-12, -6)
            leak = float(rng.uniform(0, q.n_z))
            budget = EpsilonBudget.simplified(eps_cor, esp, "1decoy")
            general = key_length_general_1decoy(q, budget, leak)
            simplified = key_length_for_mode(q, eps_cor, esp, leak, "1decoy")
            worst = max(worst, abs(general.pre_floor - simplified.pre_floor))
            assert general.gamma == simplified.gamma
        assert worst <= 1e-9


class TestKeyLengthBehavior:
    def test_zero_thresholds_give_zero_length(self):
        q = AcceptanceSet(n_z=10**4, n_x=10**4, s_z0=0, s_z1=0, s_x1=0, lambda_u=0.1)
        report = key_length_for_mode(q, 1e-15, 1e-9, 0.0, "1decoy")
        assert report.length == 0
        assert not report.secure

    def test_truncated_entropy_kills_single_photon_term(self):
        q = AcceptanceSet(n_z=10**4, n_x=10**4, s_z0=100, s_z1=1000, s_x1=1000, lambda_u=0.4)
        report = key_length_for_mode(q, 1e-15, 1e-9, 0.0, "1decoy", gamma=0.2)
        assert report.terms["single_photon"] == 0.0

    def test_negative_pre_floor_clips_to_zero_with_flag(self):
        report = key_length_for_mode(WORKED_Q, 1e-15, 1e-9, 5000.0, "1decoy", gamma=0.0)
        assert report.length == 0
        assert report.pre_floor < 0
        assert not report.secure
        assert any("no key" in note for note in report.notes)

    def test_budget_violation_raises(self):
        budget = EpsilonBudget(eps_cor=0.1, eps_sec_prime=0.5, nu=0.2, alpha2=0.2, delta_ci=0.2)
        with pytest.raises(NoAdmissibleKey):
            key_length_general_1decoy(WORKED_Q, budget, 0.0, gamma=0.0)

    def test_two_decoy_never_beats_one_decoy(self):
        rng = philox(13)
        for _ in range(200):
            q = random_acceptance(rng)
            eps_cor = 10.0 ** rng.uniform(-16, -4)
            esp = 10.0 ** rng.uniform(-12, -6)
            leak = float(rng.uniform(0, q.n_z / 2))
            r1 = key_length_for_mode(q, eps_cor, esp, leak, "1decoy")
            r2 = key_length_for_mode(q, eps_cor, esp, leak, "2decoy")
            assert r2.pre_floor <= r1.pre_floor + 1e-12
            assert r2.length <= r1.length

    def test_monotonicity_small_grid(self):
        base = dict(n_z=10**5, n_x=10**5, s_x1=5000)
        esp, eps_cor, leak = 1e-9, 1e-12, 300.0
        lengths = []
        for s_z1 in (1000, 2000, 4000):
            q = AcceptanceSet(s_z0=50, s_z1=s_z1, lambda_u=0.05, **base)
            lengths.append(key_length_for_mode(q, eps_cor, esp, leak, "1decoy").pre_floor)
        assert lengths == sorted(lengths)
        lengths = []
        for lam in (0.01, 0.05, 0.1, 0.3):
            q = AcceptanceSet(s_z0=50, s_z1=2000, lambda_u=lam, **base)
            lengths.append(key_length_for_mode(q, eps_cor, esp, leak, "1decoy").pre_floor)
        assert lengths == sorted(lengths, reverse=True)


def _acceptance(n_z, n_x, f_s0, f_s1, f_sx1, f_lam):
    s_z0 = f_s0 * n_z
    return AcceptanceSet(
        n_z=n_z, n_x=n_x, s_z0=s_z0, s_z1=f_s1 * (n_z - s_z0), s_x1=f_sx1 * n_x,
        lambda_u=0.5 * f_lam,
    )


# Largest value each threshold may take with the others held fixed.
_THRESHOLD_LIMITS = {
    "s_z0": lambda q: q.n_z - q.s_z1,
    "s_z1": lambda q: q.n_z - q.s_z0,
    "s_x1": lambda q: float(q.n_x),
    "lambda_u": lambda q: 0.5,
}
_fraction = st.floats(0.0, 1.0)


class TestKeyLengthMonotonicity:
    """A larger vacuum or single-photon threshold never shortens the key, a
    larger QBER threshold never lengthens it."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 10**14), st.integers(1, 10**14),
        st.tuples(_fraction, _fraction, _fraction, _fraction),
        st.sampled_from(sorted(_THRESHOLD_LIMITS)), _fraction,
        _fraction, st.floats(-15.0, -3.0), st.floats(-12.0, -2.0),
        st.sampled_from(["1decoy", "2decoy"]),
    )
    def test_monotone_in_each_threshold(self, n_z, n_x, fractions, name, step,
                                        leak_frac, log_eps_cor, log_eps_sec, mode):
        try:
            q = _acceptance(n_z, n_x, *fractions)
            value = getattr(q, name)
            moved = replace(q, **{name: value + step * (_THRESHOLD_LIMITS[name](q) - value)})
        except ConfigError:
            assume(False)  # float rounding pushed a threshold past its block
        args = (10.0**log_eps_cor, 10.0**log_eps_sec, leak_frac * n_z, mode)
        try:
            before = key_length_for_mode(q, *args)
            after = key_length_for_mode(moved, *args)
        except EstimateUnavailable:
            assume(False)  # a single-photon count in (0, 1): length undefined
        if name == "lambda_u":
            assert after.length <= before.length
        else:
            assert after.length >= before.length


class TestCorrectnessHashLength:
    def test_values(self):
        assert correctness_hash_length(2.0**-9) == 10
        assert correctness_hash_length(1e-15) == 51

    def test_halving_adds_one_bit_at_powers_of_two(self):
        for c in range(2, 40):
            assert correctness_hash_length(2.0**-c) == c + 1
            assert correctness_hash_length(2.0 ** -(c + 1)) == correctness_hash_length(2.0**-c) + 1

    def test_domain(self):
        with pytest.raises(ConfigError):
            correctness_hash_length(0.0)
        with pytest.raises(ConfigError):
            correctness_hash_length(1.0)
